package main

import (
	"fmt"
	"time"
)

// rung is one offered rate of the max_eps ladder and its verdict.
type rung struct {
	rate       float64
	delayP90   time.Duration
	pushP90    time.Duration
	samples    int
	backlogEnd int64
	pass       bool
	overloaded bool
	attempts   int
	// throughput is the events per second an average replica applied
	// while the rung was offered; on an overloaded rung, its capacity.
	throughput float64
}

// runLadder offers each rung's rate in turn, up to rungAttempts times
// until it passes, and stops at the first failing rung that left a
// growing backlog. A rung that failed on latency alone, with the backlog
// drained, is a stretch of heavy stream content rather than overload, so
// the ladder goes on.
func (r *runner) runLadder() ([]rung, error) {
	var out []rung
	for _, rate := range ladder() {
		var rg rung
		for attempt := 0; attempt < rungAttempts && !rg.pass; attempt++ {
			var err error
			if rg, err = r.offerRung(rate); err != nil {
				return nil, err
			}
			rg.attempts = attempt + 1
		}
		out = append(out, rg)
		if !rg.pass && rg.overloaded {
			break
		}
	}
	return out, nil
}

// offerRung offers rate for rungSeconds, drains, and judges the rung.
func (r *runner) offerRung(rate float64) (rung, error) {
	n := int(rate * r.sz.rungSeconds)
	lo := r.next
	s := r.tr.open("ladder.rung", int64(rate), -1)
	applied0 := r.dep.applied()
	r.openLoop(lo, lo+n, rate, s, nil)
	end := r.now()
	rg := rung{rate: rate, backlogEnd: r.backlog()}
	behind := time.Duration(end - r.sched[lo+n-1].Load())
	rg.throughput = float64(r.dep.applied()-applied0) / float64(r.slots()) / (float64(end-r.sched[lo].Load()) / 1e9)
	rg.delayP90 = r.scheduleDelayP90(lo, lo+n, rate)
	if err := r.drain(); err != nil {
		return rung{}, err
	}
	r.tr.close(s)
	r.mu.Lock()
	lat := firstPushes(r.pushes, lo, lo+n)
	r.mu.Unlock()
	rg.samples = len(lat)
	rg.pushP90 = time.Duration(quantile(lat, 0.9))
	// The delay of every event, not only of those that push, decides the
	// rung: which events push depends on the stream's content at that
	// point far more than on the offered rate.
	// Overload: the generator's lag at the end of the rung plus the
	// backlog it left, in time at the offered rate, exceeds the limit.
	// Publish blocks once the replicas' queues are full, so past that
	// point the backlog stops growing and the generator's lag grows.
	left := behind + time.Duration(float64(rg.backlogEnd)/float64(r.slots())/rate*1e9)
	rg.overloaded = left > latencyLimit
	rg.pass = rg.delayP90 < latencyLimit && !rg.overloaded
	r.logf("  %7.0f/s: pass=%v delay p90=%v push p90=%v backlog=%d\n", rate, rg.pass,
		rg.delayP90.Round(time.Microsecond), rg.pushP90.Round(time.Microsecond), rg.backlogEnd)
	return rg, nil
}

// scheduleDelayP90 estimates the p90 delay of events [lo, hi) sent at
// rate from the progress samples taken while they were due: at each
// sample, the events scheduled so far but not yet applied by an average
// replica, divided by the rate, is the wait an event arriving then faces
// (Little's law). It counts a generator that fell behind as delay.
func (r *runner) scheduleDelayP90(lo, hi int, rate float64) time.Duration {
	first, last := r.sched[lo].Load(), r.sched[hi-1].Load()
	r.smu.Lock()
	defer r.smu.Unlock()
	var delays []int64
	for _, s := range r.samples {
		if s.at < first || s.at > last {
			continue
		}
		due := lo + int(float64(s.at-first)*rate/1e9) + 1
		waiting := float64(due)*float64(r.slots()) - float64(s.applied)
		delays = append(delays, int64(max(waiting, 0)/float64(r.slots())/rate*1e9))
	}
	return time.Duration(quantile(delays, 0.9))
}

// ladderVerdict returns max_eps: the rate the replicas sustained on the
// overloaded rung that ended the ladder, or on the highest passing rung if
// that is higher. Capacity sits between two rungs, and near it the
// pass/fail verdict flips from run to run, so the highest passing rung
// alone jumps by a whole rung step; the throughput on the overloaded rung
// measures the same edge continuously. Unless the bottom rung passed and
// the last one was overloaded, the ladder did not bracket the capacity and
// max_eps is 0.
func ladderVerdict(rungs []rung) (float64, []string) {
	var lines []string
	for _, g := range rungs {
		verdict := "pass"
		if !g.pass {
			verdict = "FAIL"
		}
		lines = append(lines, fmt.Sprintf("ladder rung %7.0f events/s: %s after %d attempt(s)  delay p90 %8.3f ms, push p90 %8.3f ms over %d pushing events, backlog at end %d, applied %.0f events/s",
			g.rate, verdict, g.attempts, msNS(int64(g.delayP90)), msNS(int64(g.pushP90)), g.samples, g.backlogEnd, g.throughput))
	}
	last := len(rungs) - 1
	if last < 1 || !rungs[0].pass || !rungs[last].overloaded {
		return 0, append(lines, "ladder: did not bracket the capacity (the bottom rung must pass and the last be overloaded); ladder.max_eps reads 0")
	}
	maxEPS := rungs[last].throughput
	for _, g := range rungs {
		if g.pass {
			maxEPS = max(maxEPS, g.throughput)
		}
	}
	return maxEPS, lines
}
