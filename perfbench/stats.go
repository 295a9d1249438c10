package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples is a raw sample set; quantiles are exact (nearest rank), never
// bucketed.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(d.Seconds()) }

// quantile returns the nearest-rank q-quantile: the smallest sample with
// at least a share q of the samples at or below it. With n samples, the
// 0.99 quantile leaves n - ceil(0.99 n) samples above it.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// perSlot keeps the samples of each slot apart: slot i is one fixed
// piece of work repeated once per pass.
type perSlot []samples

func (m *perSlot) add(slot int, v float64) {
	for len(*m) <= slot {
		*m = append(*m, nil)
	}
	(*m)[slot].add(v)
}

// medians returns each slot's median.
func (m perSlot) medians() samples {
	out := make(samples, len(m))
	for i, s := range m {
		out[i] = s.median()
	}
	return out
}

// beyond reports how many samples lie strictly above the q-quantile.
func (s samples) beyond(q float64) int {
	v := s.quantile(q)
	n := 0
	for _, x := range s {
		if x > v {
			n++
		}
	}
	return n
}

// resetPeakRSS restarts the process's peak resident set size (VmHWM)
// from its current resident set, so that peakRSSMB then reads the peak
// since this call.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// memDelta accumulates runtime allocation and GC counters over the
// measured regions only, so the benchmark's own collections between runs
// never count as the program's.
type memDelta struct {
	before     runtime.MemStats
	gcCycles   uint64
	forcedGC   uint64
	mallocs    uint64
	allocBytes uint64
}

func (m *memDelta) begin() {
	runtime.ReadMemStats(&m.before)
}

func (m *memDelta) end() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.gcCycles += uint64(after.NumGC - m.before.NumGC)
	m.forcedGC += uint64(after.NumForcedGC - m.before.NumForcedGC)
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.allocBytes += after.TotalAlloc - m.before.TotalAlloc
}

func ms(seconds float64) float64 { return seconds * 1e3 }
