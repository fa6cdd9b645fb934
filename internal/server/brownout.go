// Memory-pressure brownout: a small state machine that degrades the
// daemon gracefully instead of letting the Go heap grow until the
// kernel kills the process. A watchdog (MemoryWatchdog, or any caller
// of ObserveMemory — tests inject samples directly) feeds it live-heap
// samples; the machine compares them against the configured soft and
// hard watermarks and transitions between three levels:
//
//	normal  full service
//	soft    live >= MemSoftBytes: evict the compiled-program and
//	        fact-base caches (the daemon's two unbounded-size heap
//	        consumers — entry counts are capped but entry sizes are
//	        not) and halve the admission queue bound, so fewer parked
//	        requests hold request state while memory is tight; service
//	        continues
//	hard    live >= MemHardBytes: additionally refuse all new API work
//	        with 503/"overloaded" + Retry-After, letting in-flight runs
//	        finish and the next GC cycle reclaim
//
// Transitions are edge-triggered for the queue bound (recovery restores
// the configured bound) but the cache purge re-runs on every sample
// while at or above soft, since caches refill between samples.
package server

import (
	"context"
	"time"
)

// PressureLevel is the daemon's memory-pressure brownout level.
type PressureLevel int32

const (
	PressureNormal PressureLevel = iota
	PressureSoft
	PressureHard
)

func (p PressureLevel) String() string {
	switch p {
	case PressureSoft:
		return "soft"
	case PressureHard:
		return "hard"
	default:
		return "normal"
	}
}

// Pressure reports the current brownout level.
func (s *Server) Pressure() PressureLevel {
	return PressureLevel(s.pressure.Load())
}

// ObserveMemory feeds one live-heap sample (bytes) to the brownout
// state machine and returns the resulting level. It is the seam tests
// drive directly; production daemons run MemoryWatchdog instead. With
// both watermarks unset it is a no-op at PressureNormal.
func (s *Server) ObserveMemory(live uint64) PressureLevel {
	soft, hard := s.cfg.MemSoftBytes, s.cfg.MemHardBytes
	if soft == 0 && hard == 0 {
		return PressureNormal
	}
	level := PressureNormal
	switch {
	case hard > 0 && live >= hard:
		level = PressureHard
	case soft > 0 && live >= soft:
		level = PressureSoft
	}

	s.pressureMu.Lock()
	defer s.pressureMu.Unlock()
	prev := PressureLevel(s.pressure.Load())
	if level >= PressureSoft {
		// Re-purge on every pressured sample: the caches refill as
		// traffic keeps arriving between watchdog ticks.
		s.programs.purge()
		s.dbs.purge()
	}
	if level == prev {
		return level
	}
	s.pressure.Store(int32(level))
	if level == PressureNormal {
		// Recovery: restore the configured admission queue bound.
		s.gate.SetQueueBound(queueBound(s.cfg.MaxQueuedRuns))
		return level
	}
	if prev == PressureNormal {
		// Entering pressure: halve the queue bound so fewer parked
		// requests hold buffers while memory is tight. An unbounded
		// configured queue stays unbounded — shrinking it would invent
		// a shed policy the operator never asked for; the purge and
		// (at hard) the refusal still apply.
		if b := queueBound(s.cfg.MaxQueuedRuns); b > 0 {
			s.gate.SetQueueBound(b / 2)
		}
	}
	return level
}

// MemoryWatchdog samples live-heap bytes via sample every interval and
// drives the brownout state machine until ctx is done. It returns
// immediately when no watermark is configured. cmd/ntgdd runs it with a
// runtime/metrics-backed sampler; tests substitute their own.
func (s *Server) MemoryWatchdog(ctx context.Context, interval time.Duration, sample func() uint64) {
	if s.cfg.MemSoftBytes == 0 && s.cfg.MemHardBytes == 0 {
		return
	}
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.ObserveMemory(sample())
		}
	}
}
