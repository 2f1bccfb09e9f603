package faultinject

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"hash/crc32"
)

// JarBomb returns a jar holding one member, name, whose DEFLATE data
// inflates to mib MiB of zeros while the jar itself stays about a
// thousandth of that: the decompression bomb a jar reader must refuse
// without inflating it. The inflated bytes are never materialized.
func JarBomb(name string, mib int) []byte {
	// Every write below goes to memory and cannot fail. One MiB of
	// zeros, flushed without a final block, is a byte-aligned segment
	// that decodes alone, so mib copies of it and an empty final block
	// (fixed Huffman codes, end-of-block) are a valid stream.
	zeros := make([]byte, 1<<20)
	var seg bytes.Buffer
	fw, _ := flate.NewWriter(&seg, flate.BestCompression)
	fw.Write(zeros)
	fw.Flush()
	raw := append(bytes.Repeat(seg.Bytes(), mib), 0x03, 0x00)
	crc := crc32.NewIEEE()
	for range mib {
		crc.Write(zeros)
	}
	var jar bytes.Buffer
	zw := zip.NewWriter(&jar)
	w, _ := zw.CreateRaw(&zip.FileHeader{
		Name:               name,
		Method:             zip.Deflate,
		CRC32:              crc.Sum32(),
		CompressedSize64:   uint64(len(raw)),
		UncompressedSize64: uint64(mib) << 20,
	})
	w.Write(raw)
	zw.Close()
	return jar.Bytes()
}
