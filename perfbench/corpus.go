package main

import (
	"fmt"
	"math"
	"math/rand"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/classfile"
	"classpack/internal/synth"
)

// corpus is one seeded set of class files as a compiler would ship them
// (debug attributes included), with entry names unique as in a real jar.
type corpus struct {
	name  string
	names []string // jar member names, "pkg/Cls.class"
	files [][]byte
	bytes int // total class bytes
	// dropped counts generated classes whose name repeated an earlier
	// one; synth can emit duplicates, a real jar cannot hold them.
	dropped int
}

// genCorpus generates a corpus shaped like a built-in synth profile.
// The seed goes into the profile name, which is what seeds synth's
// generator, so every seed gives a different corpus of the same shape.
func genCorpus(profile string, scale float64, seed int64, tag string) (*corpus, error) {
	p, err := synth.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	p.Name = fmt.Sprintf("%s.seed%d%s", profile, seed, tag)
	cfs, err := synth.Generate(p, scale)
	if err != nil {
		return nil, err
	}
	c := &corpus{name: p.Name}
	seen := map[string]bool{}
	for _, cf := range cfs {
		name := cf.ThisClassName() + ".class"
		if seen[name] {
			c.dropped++
			continue
		}
		seen[name] = true
		data, err := classfile.Write(cf)
		if err != nil {
			return nil, err
		}
		c.names = append(c.names, name)
		c.files = append(c.files, data)
		c.bytes += len(data)
	}
	return c, nil
}

// genCorpora generates one corpus per profile.
func genCorpora(profiles []string, scale float64, seed int64) ([]*corpus, error) {
	var out []*corpus
	for _, p := range profiles {
		c, err := genCorpus(p, scale, seed, "")
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// jar builds the corpus's jar (per-entry DEFLATE).
func (c *corpus) jar() ([]byte, error) {
	return jarOf(c.names, c.files)
}

func jarOf(names []string, files [][]byte) ([]byte, error) {
	members := make([]archive.File, len(files))
	for i := range files {
		members[i] = archive.File{Name: names[i], Data: files[i]}
	}
	return archive.WriteJar(members)
}

// stripped returns the oracle's expectation: classpack.Strip of every
// class, which is what any unpack path must reproduce.
func (c *corpus) stripped() ([][]byte, error) {
	out := make([][]byte, len(c.files))
	for i, f := range c.files {
		s, err := classpack.Strip(f)
		if err != nil {
			return nil, fmt.Errorf("%s: strip %s: %w", c.name, c.names[i], err)
		}
		out[i] = s
	}
	return out, nil
}

// describe prints the corpus sizes and the duplicate names dropped.
func describe(rep *report, cs []*corpus) {
	for _, c := range cs {
		rep.note("corpus %s: %d classes, %.3f MB; %d duplicate class names dropped",
			c.name, len(c.files), float64(c.bytes)/1e6, c.dropped)
	}
}

// scaled multiplies a corpus scale, keeping a floor so tiny test runs
// still generate several classes.
func scaled(base, scale float64) float64 { return math.Max(base*scale, 0.001) }

// changeRate is the share of classes a new release changes.
const changeRate = 0.05

// release derives the next release of a class set: exactly
// changeRate of the classes (at least one), chosen by seed, changed by
// synth.MutateClass. A fixed count, rather than synth.MutateClasses'
// per-class coin flip, keeps every release's size of change the same.
func release(files [][]byte, seed int64) ([][]byte, error) {
	want := max(1, int(math.Round(changeRate*float64(len(files)))))
	out := append([][]byte(nil), files...)
	changed := 0
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(files)) {
		if changed == want {
			break
		}
		mut, ok, err := synth.MutateClass(files[i])
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = mut
			changed++
		}
	}
	return out, nil
}

// patchReleases is how many new releases of each corpus patchRatio
// diffs: which classes a release changes moves a single patch's size a
// lot, so the ratio averages several.
const patchReleases = 3

// patchRatio measures CJPD patches for patchReleases new releases of
// each corpus, packed with opts: the summed Diff(old, new) bytes over the
// summed new archive bytes. It runs outside the measured phase, on two
// workers (the bytes do not depend on the worker count).
func patchRatio(cs []*corpus, opts classpack.Options, seed int64) (float64, error) {
	opts.Concurrency = 2
	var patchBytes, newBytes int
	for i, c := range cs {
		oldArc, err := classpack.Pack(c.files, &opts)
		if err != nil {
			return 0, err
		}
		for r := 0; r < patchReleases; r++ {
			next, err := release(c.files, seed*1_000_003+int64(i*patchReleases+r))
			if err != nil {
				return 0, err
			}
			newArc, err := classpack.Pack(next, &opts)
			if err != nil {
				return 0, err
			}
			patch, err := classpack.Diff(oldArc, newArc, &opts)
			if err != nil {
				return 0, err
			}
			patchBytes += len(patch)
			newBytes += len(newArc)
		}
	}
	return float64(patchBytes) / float64(newBytes), nil
}
