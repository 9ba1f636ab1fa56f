package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// memSampleInterval is the sampling period of memSampler. A peak can
// fall between two samples, and what is allocated in between goes
// unseen: at 2 ms that alone spread serve-mixed's per-job peaks 11 %
// across seeds.
const memSampleInterval = 500 * time.Microsecond

// memGOGC is the collector setting (GOGC) of the runs peak_mem_mb is
// taken from. At the default of 100 the heap climbs to twice the live
// data before each collection, and a short run's peak depends on where
// those collections fall: serve-mixed's per-job peaks so taken spread
// 14 % across seeds. At 10 the heap stays within a tenth of the live
// data, so the peak is the run's working set.
const memGOGC = 10

// collect empties the heap before a memory run. It collects twice: a
// sync.Pool keeps what it held through one collection, so after a
// single one the pooled buffers of the previous run, about 2 MiB after
// fiber on random-sparse, were still in the heap for some of the next
// run and lifted async's peak by 1.2 MiB in about half of the runs.
func collect() {
	runtime.GC()
	runtime.GC()
}

// memRecord is the size of one sample in the series: the time since
// the sampler started, in nanoseconds, then the bytes, both uint64.
const memRecord = 16

// memSampler records heap-in-use plus stack memory (what
// runtime.MemStats reports as HeapInuse+StackInuse) on a background
// ticker, as a time series, so the peak over any interval can be read
// afterwards. Stacks count because the goroutine-per-vertex engines keep
// most of their memory there. It reads runtime/metrics, which does not
// stop the world, so sampling does not stall the run it measures.
//
// The series lives in an anonymous mapping outside the Go heap. On the
// heap it would count in what it measures and, by raising the
// collector's goal, lift every peak by more than its own size.
type memSampler struct {
	start time.Time

	mu      sync.Mutex
	samples []metrics.Sample
	series  []byte        // memRecord bytes per sample, times ascending
	n       int           // samples taken
	dropped int           // samples that did not fit in the series
	lateMax time.Duration // largest gap between ticks beyond the period

	stop chan struct{}
	done chan struct{}
}

var memMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/stacks:bytes",
}

// startMemSampler starts a sampler with room for a workload of up to
// limit; Stop ends it.
func startMemSampler(limit time.Duration) (*memSampler, error) {
	size := int((limit+time.Minute)/memSampleInterval) * memRecord
	series, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the memory series: %w", err)
	}
	s := &memSampler{
		start:  time.Now(),
		series: series,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, name := range memMetricNames {
		s.samples = append(s.samples, metrics.Sample{Name: name})
	}
	go s.loop()
	return s, nil
}

func (s *memSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(memSampleInterval)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			now := s.Mark()
			s.mu.Lock()
			s.lateMax = max(s.lateMax, now.Sub(last)-memSampleInterval)
			s.mu.Unlock()
			last = now
		}
	}
}

// Mark takes a sample now and returns its time: callers bracket an
// interval with two Marks so even an interval shorter than the period
// has samples at both ends.
func (s *memSampler) Mark() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.Read(s.samples)
	var total uint64
	for _, sm := range s.samples {
		if sm.Value.Kind() == metrics.KindUint64 {
			total += sm.Value.Uint64()
		}
	}
	now := time.Now()
	if (s.n+1)*memRecord > len(s.series) {
		s.dropped++
		return now
	}
	r := s.series[s.n*memRecord:]
	binary.NativeEndian.PutUint64(r, uint64(now.Sub(s.start)))
	binary.NativeEndian.PutUint64(r[8:], total)
	s.n++
	return now
}

// sample returns the time and bytes of sample i.
func (s *memSampler) sample(i int) (time.Duration, uint64) {
	r := s.series[i*memRecord:]
	return time.Duration(binary.NativeEndian.Uint64(r)), binary.NativeEndian.Uint64(r[8:])
}

// PeakBetween returns the largest sample taken in [t0, t1], in MiB.
func (s *memSampler) PeakBetween(t0, t1 time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, hi := t0.Sub(s.start), t1.Sub(s.start)
	var peak uint64
	for i := sort.Search(s.n, func(i int) bool { at, _ := s.sample(i); return at >= lo }); i < s.n; i++ {
		at, b := s.sample(i)
		if at > hi {
			break
		}
		peak = max(peak, b)
	}
	return float64(peak) / mib
}

// LateMax is the largest gap between two sampling ticks beyond the
// period: how late the harness's own timer ran.
func (s *memSampler) LateMax() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lateMax
}

// Err reports samples that found the series full: the workload ran
// longer than the sampler was started for.
func (s *memSampler) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped > 0 {
		return fmt.Errorf("memory sampler full: %d samples dropped after %d", s.dropped, s.n)
	}
	return nil
}

// Stop ends the sampler, waits for its goroutine to exit and releases
// the series.
func (s *memSampler) Stop() {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	// An unmapping error leaves only address space behind; the process
	// ends soon after.
	_ = syscall.Munmap(s.series)
	s.series, s.n = nil, 0
}
