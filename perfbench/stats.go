package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// latencies collects per-operation durations in milliseconds. It is
// safe for concurrent use.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(ms float64) {
	l.mu.Lock()
	l.ms = append(l.ms, ms)
	l.mu.Unlock()
}

func (l *latencies) sorted() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]float64(nil), l.ms...)
	sort.Float64s(out)
	return out
}

func (l *latencies) sum() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := 0.0
	for _, v := range l.ms {
		s += v
	}
	return s
}

func (l *latencies) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ms)
}

// median of sorted values (mean of the middle two for even counts).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail returns the highest percentile of sorted values that still has
// tailBeyond samples above it: the 11th-largest sample. With fewer than
// 2*tailBeyond+1 samples it falls back to the sample with half the rest
// above it. It also returns that sample's percentile and how many
// samples lie beyond it, which the report prints beside the value.
func tail(sorted []float64) (v, pct float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	beyond = tailBeyond
	if n < 2*tailBeyond+1 {
		beyond = (n - 1) / 2
	}
	i := n - 1 - beyond
	return sorted[i], 100 * float64(i+1) / float64(n), beyond
}

// setLatency reports name_p50 and name_tail metrics for one latency set,
// with the tail's percentile and sample counts as the note.
func setLatency(rep *report, p50Name, tailName string, l *latencies) {
	s := l.sorted()
	rep.set(p50Name, median(s), "ms", fmt.Sprintf("median of %d", len(s)))
	v, pct, beyond := tail(s)
	rep.set(tailName, v, "ms", fmt.Sprintf("p%.1f of %d, %d samples beyond", pct, len(s), beyond))
}

// heapSampler records the live heap at the end of every GC cycle
// while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	live []float64 // MB, one per GC cycle seen
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	last := sample[0].Value.Uint64()
	read := func() {
		metrics.Read(sample)
		if n := sample[0].Value.Uint64(); n != last {
			last = n
			h.live = append(h.live, float64(sample[1].Value.Uint64())/1e6)
		}
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in MB, taken as the
// 90th percentile over the GC cycles seen (a single cycle's maximum
// depends on where the cycle happened to fall), and the cycle count.
func (h *heapSampler) Stop() (mb float64, cycles int) {
	close(h.stop)
	<-h.done
	if len(h.live) == 0 {
		return 0, 0
	}
	sort.Float64s(h.live)
	return h.live[(len(h.live)-1)*9/10], len(h.live)
}

// setHeap reports heap_peak_mb from a stopped sampler.
func setHeap(rep *report, h *heapSampler) {
	mb, cycles := h.Stop()
	rep.set("heap_peak_mb", mb, "MB", fmt.Sprintf("p90 of the live heap over %d GC cycles in the measured phase", cycles))
}

// allocs is a snapshot of the process's cumulative heap allocation.
type allocs struct{ bytes, objects uint64 }

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

// readAllocs reads the cumulative allocation counters from
// runtime/metrics, which (unlike runtime.ReadMemStats) neither stops
// the world nor flushes the per-P caches the measured code allocates
// from. Not safe for concurrent use.
func readAllocs() allocs {
	metrics.Read(allocSamples)
	return allocs{allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()}
}

func (a allocs) since(b allocs) allocs { return allocs{a.bytes - b.bytes, a.objects - b.objects} }

// printFingerprint prints the machine and build the numbers come from.
func printFingerprint(w io.Writer, cfg config) {
	fmt.Fprintf(w, "== perfbench workload=%s seed=%d seconds=%g trace=%t scale=%g\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale)
	fmt.Fprintf(w, "  cpu: %s; nproc %d; GOMAXPROCS %d; %s %s/%s\n", cpuModel(), runtime.NumCPU(),
		runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "  source: %s; cache dir %s on %s\n", gitSHA(), cfg.workDir, fsType(cfg.workDir))
	fmt.Fprintln(w, "  note: fsync timings are those of this host's filesystem stack (often a"+
		" sandbox or overlay), not of a physical device")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA names the source revision the wrapper recorded, if any.
func gitSHA() string {
	if s := os.Getenv("PERFBENCH_SHA"); s != "" {
		return "git " + s
	}
	return "git unknown (not built from a git checkout)"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021997: "9p",
		0x6a656a63: "virtiofs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("filesystem magic %#x", st.Type)
}
