package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"motifstream/internal/delivery"
	"motifstream/internal/motifdsl"
)

// spec is one workload.
type spec struct {
	name      string
	networked bool // hub and workers over loopback TCP
	recovery  bool // kill/restore and reprovision cycles after the ladder
}

var specs = []spec{
	{name: "ingest-diamond", recovery: true},
	{name: "networked", networked: true},
}

// The offered load. Every rate is a fixed number, never a fraction of a
// measured capacity, so a faster program is offered the same load.
const (
	// streamRate is events per second of stream time. It sets how many
	// events one D window holds, and so how long the warm-up must be.
	streamRate = 20
	nominalEPS = 3000 // offered events/s in the measured segment
	// The max_eps ladder offers rates ladderBase*ladderStep^i.
	ladderBase  = 3600
	ladderStep  = 1.25
	ladderRungs = 8
	// reads is how many reads the read phase makes.
	reads = 10_000
)

func ladder() []float64 {
	rates := make([]float64, ladderRungs)
	for i := range rates {
		rates[i] = math.Round(ladderBase * math.Pow(ladderStep, float64(i)))
	}
	return rates
}

func (sp spec) shape() string {
	s := fmt.Sprintf("%d partitions x %d replicas, durable log + checkpoints, apply batch %d x %d workers, diamond k=3 + %d family motifs",
		partitions, replicas, applyBatch, applyWorkers, familySize)
	if sp.networked {
		s += ", hub + 2 workers over loopback TCP in one process"
	}
	return s
}

// Fixed verdict thresholds.
const (
	// latencyLimit is the p90 delay a ladder rung must stay under.
	latencyLimit = 100 * time.Millisecond
	setupReps    = 5
	// windows splits the measured segment; latency quantiles are taken per
	// window and the median across windows is reported, so one transient
	// stall moves one window, not the result.
	windows = 5
	// rungAttempts is how often a failing ladder rung is offered before it
	// counts as failed; a stall of a few hundred ms fails one attempt.
	rungAttempts = 2
	// dGrowthLimit bounds how far D may move between the last two warm-up
	// quarters, and from the last one to the end of the measured segment.
	dGrowthLimit = 0.15
	// candRatioLimit bounds how far candidates per event may rise from the
	// second half of the warm-up to the measured segment. Candidates per
	// event follow the stream's bursts even while D stays level: computed
	// without the cluster for 28 seeds, the ratio of the two medians over
	// 1000-event blocks ranged from 0.18 to 3.67, and its logarithm had a
	// mean of -0.12 and a standard deviation of 0.72. A limit of 10 sits 3.3
	// such deviations above the mean, so a stationary run fails it about
	// once in 2500 (for a log-normal ratio). The guard catches growth beyond
	// the bursts; the D guard above is the sensitive one.
	candRatioLimit = 10.0
)

type pushSample struct {
	idx int32
	lat int64
}

type sample struct {
	at                        int64
	published, applied, cands uint64
	goroutines                int
}

// runner holds one run's state.
type runner struct {
	opt  options
	sp   spec
	sz   sizes
	in   *inputs
	log  io.Writer
	base time.Time
	tr   *tracer
	dep  *deployment
	// lay collects the per-layer metrics as the phases produce them.
	lay map[string]float64

	// sched is each event's scheduled send time in ns since base; zero
	// for closed-loop (warm-up) events, whose pushes are not timed.
	sched     []atomic.Int64
	next      int
	published atomic.Uint64

	mu        sync.Mutex
	notes     []note
	pushes    []pushSample
	unmatched int

	publishErrs int

	smu     sync.Mutex
	samples []sample
}

// segment is what the measured segment produced.
type segment struct {
	span           int32
	start, genEnd  int64 // ns since base
	lo, hi         int   // event indices
	marks          []int // window boundaries, event indices
	cpuAt          []time.Duration
	wallAt         []int64 // ns since base
	late           []int64
	dAfter         int64
	ms0, ms1       runtime.MemStats
	heap           int64 // bytes above the pre-setup baseline
	candsPerEvent  float64
	layerSnapshots map[string]float64
}

func (r *runner) now() int64 { return int64(time.Since(r.base)) }

// logf prints progress with the time since the run started.
func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "[%6.2fs] "+format, append([]any{time.Since(r.base).Seconds()}, args...)...)
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func runWorkload(opt options, log io.Writer) (*result, error) {
	sp, ok := findSpec(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames())
	}
	sz, ok := sizeTable[opt.size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", opt.size)
	}
	if opt.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	r := &runner{opt: opt, sp: sp, sz: sz, log: log, base: time.Now(), lay: map[string]float64{}}
	r.tr = newTracer(opt.trace, r.base)
	dir, err := runDir(opt)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer func() {
		if r.dep != nil {
			r.dep.close()
		}
	}()
	return r.run(dir)
}

func (r *runner) run(dir string) (*result, error) {
	warm := int(r.sz.warmWindows * window.Seconds() * streamRate)
	nominal := int(nominalEPS * r.opt.seconds)
	events := warm + nominal
	for _, rate := range ladder() {
		events += rungAttempts * int(rate*r.sz.rungSeconds)
	}
	r.logf("perfbench %s seed=%d: generating %d events\n", r.sp.name, r.opt.seed, events)
	r.in = generate(r.sz, r.opt.seed, events, reads)
	r.sched = make([]atomic.Int64, len(r.in.stream))
	if err := r.compileFamily(); err != nil {
		return nil, err
	}
	if r.opt.trace {
		build, bytes := timeStaticBuild(r.in, r.tr)
		r.lay["statstore.build_s"] = build.Seconds()
		r.lay["statstore.bytes"] = float64(bytes)
	}

	// The heap baseline is taken after the inputs exist and before any
	// deployment, so generated inputs are not counted.
	heapBase := heapAlloc()
	setups, err := r.setUp(dir)
	if err != nil {
		return nil, err
	}
	stopSampler := r.startSampler()
	defer stopSampler()

	dQuarters, err := r.warmUp(warm)
	if err != nil {
		return nil, err
	}
	candWarm := r.candsPerEvent(uint64(warm/2), uint64(warm))
	seg, err := r.measure(nominal)
	if err != nil {
		return nil, err
	}
	readErrs := r.readPhase()
	seg.heap -= int64(heapBase)
	problems := stationarity(dQuarters, seg, candWarm)
	info := []string{fmt.Sprintf("stationarity: dynstore.edges per warm-up quarter %v, %d after the segment; candidates/event %.3f late warm-up, %.3f in segment",
		dQuarters, seg.dAfter, candWarm, seg.candsPerEvent)}

	r.logf("ladder\n")
	rungs, err := r.runLadder()
	if err != nil {
		return nil, err
	}
	maxEPS, ladderLines := ladderVerdict(rungs)
	r.lay["ladder.max_eps"] = maxEPS
	info = append(info, ladderLines...)
	if r.sp.recovery {
		if err := r.recover(); err != nil {
			return nil, err
		}
	}

	// Stopping drains delivery, so every push is recorded before the
	// comparison.
	reconnects := sumCounter(r.dep.registries(), "transport.reconnects")
	r.lay["transport.reconnects"] = float64(reconnects)
	r.lay["cluster.base_pool_restores"] = float64(r.dep.front.Stats().BasePoolRestores)
	stopSampler()
	err = r.dep.close()
	r.dep = nil
	if err != nil {
		return nil, fmt.Errorf("stop deployment: %w", err)
	}
	missing, extra, err := r.verify()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	unmatched := r.unmatched
	r.mu.Unlock()
	info = append(info, fmt.Sprintf("correctness: %d pushes delivered, reference %d, missing %d, extra %d, untraceable %d",
		len(r.notes), len(r.notes)-extra+missing, missing, extra, unmatched))
	if missing+extra+unmatched > 0 {
		problems = append(problems, fmt.Sprintf("delivered pushes differ from the reference: %d missing, %d extra, %d untraceable", missing, extra, unmatched))
	}

	res := &result{host: hostShape(r.opt, r.sp)}
	res.e2e, info = r.endToEnd(seg, setups, info)
	if err := r.layerMetrics(seg); err != nil {
		return nil, err
	}
	for _, name := range layerNames {
		res.layer = append(res.layer, metric{name.name, name.unit, r.lay[name.name]})
	}
	res.info = info
	res.attempted = int(r.published.Load()) + reads
	res.failed = r.publishErrs + readErrs + missing + extra + unmatched + int(reconnects)
	res.problems = problems
	if res.failed > 0 && len(problems) == 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d failed operations (publish %d, read %d, transport reconnects %d)",
			res.failed, r.publishErrs, readErrs, reconnects))
	}
	res.correct = len(res.problems) == 0
	r.logf("done\n")
	return res, nil
}

// compileFamily checks that the motif family compiles to its programs
// before any deployment is built, and times the compile.
func (r *runner) compileFamily() error {
	s := r.tr.open("motifdsl.compile", -1, -1)
	start := time.Now()
	progs, err := motifdsl.Compile(familyMotifs())
	r.lay["motifdsl.compile_ms"] = ms(time.Since(start))
	r.tr.close(s)
	if err != nil {
		return fmt.Errorf("motif family: %w", err)
	}
	if len(progs) != familySize {
		return fmt.Errorf("motif family compiled to %d programs, want %d", len(progs), familySize)
	}
	return nil
}

// setUp builds the deployment setupReps times, keeps the last one running
// and returns every setup's time in seconds.
func (r *runner) setUp(dir string) ([]float64, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		s := r.tr.open("setup", int64(i), -1)
		d, t, err := deploy(r.sp, r.in, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), r.onNotify, r.tr, s)
		r.tr.close(s)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, t.total.Seconds())
		r.lay["cluster.await_live_s"] = t.awaitLive.Seconds()
		if i == setupReps-1 {
			r.dep = d
		} else if err := d.close(); err != nil {
			return nil, fmt.Errorf("tear down setup %d: %w", i, err)
		}
	}
	return setups, nil
}

// warmUp publishes the first warm events closed loop, in quarters, and
// returns D's size after each quarter.
func (r *runner) warmUp(warm int) ([]int64, error) {
	r.logf("warm-up: %d events (%.1f windows of stream time)\n", warm, r.sz.warmWindows)
	s := r.tr.open("warmup", -1, -1)
	defer r.tr.close(s)
	var quarters []int64
	for q := 1; q <= 4; q++ {
		for hi := warm * q / 4; r.next < hi; {
			r.publish(r.next, s, r.now())
		}
		if err := r.drain(); err != nil {
			return nil, err
		}
		edges, err := r.dEdges()
		if err != nil {
			return nil, err
		}
		quarters = append(quarters, edges)
	}
	return quarters, nil
}

// measure runs the measured segment: nominal events open loop at the
// nominal rate.
func (r *runner) measure(nominal int) (*segment, error) {
	r.logf("measured segment: %d events at %d/s\n", nominal, nominalEPS)
	seg := &segment{lo: r.next, hi: r.next + nominal}
	// A collection right before the segment puts the segment's own
	// collections at the same points in every run: with a live heap of
	// 100-200 MiB one cycle costs a few hundred ms of CPU, which would
	// otherwise land in the segment or not by chance.
	runtime.GC()
	runtime.ReadMemStats(&seg.ms0)
	seg.span = r.tr.open("nominal", -1, -1)
	seg.start = r.now()
	seg.marks = make([]int, windows+1)
	for k := range seg.marks {
		seg.marks[k] = seg.lo + nominal*k/windows
	}
	seg.late, seg.cpuAt, seg.wallAt = r.openLoop(seg.lo, seg.hi, nominalEPS, seg.span, seg.marks)
	seg.genEnd = r.now()
	if err := r.drain(); err != nil {
		return nil, err
	}
	r.tr.close(seg.span)
	runtime.ReadMemStats(&seg.ms1)
	seg.heap = int64(heapAlloc())
	var err error
	if seg.dAfter, err = r.dEdges(); err != nil {
		return nil, err
	}
	seg.candsPerEvent = r.candsPerEvent(uint64(seg.lo), uint64(seg.hi))
	seg.layerSnapshots = r.snapshotLayers()
	return seg, nil
}

// stationarity checks that D and candidates per event had levelled off
// before the segment started and stayed level through it.
func stationarity(dQuarters []int64, seg *segment, candWarm float64) []string {
	var problems []string
	dLast := float64(dQuarters[3])
	if d := math.Abs(float64(dQuarters[2])-dLast) / dLast; d > dGrowthLimit {
		problems = append(problems, fmt.Sprintf("dynstore.edges still moving at the end of warm-up: %v per quarter", dQuarters))
	}
	if d := math.Abs(float64(seg.dAfter)-dLast) / dLast; d > dGrowthLimit {
		problems = append(problems, fmt.Sprintf("dynstore.edges moved %.0f%% across the measured segment (%d -> %d)", 100*d, dQuarters[3], seg.dAfter))
	}
	if candWarm == 0 || seg.candsPerEvent/candWarm > candRatioLimit {
		problems = append(problems, fmt.Sprintf("candidates per event still rising: %.3f in late warm-up, %.3f in the segment", candWarm, seg.candsPerEvent))
	}
	return problems
}

// verify compares the delivered pushes with the reference for the
// published prefix of the stream.
func (r *runner) verify() (missing, extra int, err error) {
	r.logf("reference: %d events\n", r.next)
	ref, err := reference(r.in, r.next)
	if err != nil {
		return 0, 0, err
	}
	if r.opt.corrupt {
		for k := range ref {
			if ref[k]--; ref[k] == 0 {
				delete(ref, k)
			}
			break
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	missing, extra = compare(ref, r.notes)
	return missing, extra, nil
}

// endToEnd computes the end-to-end metrics, and the latency figures kept
// as per-layer diagnostics: medians over the segment's windows.
func (r *runner) endToEnd(seg *segment, setups []float64, info []string) ([]metric, []string) {
	r.mu.Lock()
	pushes := r.pushes
	r.mu.Unlock()
	var wP50, wP90, wCPU []float64
	for k := 0; k < windows; k++ {
		lo, hi := seg.marks[k], seg.marks[k+1]
		wp := firstPushes(pushes, lo, hi)
		wP50 = append(wP50, msNS(quantile(wp, 0.5)))
		wP90 = append(wP90, msNS(quantile(wp, 0.9)))
		wCPU = append(wCPU, (seg.cpuAt[k+1]-seg.cpuAt[k]).Seconds()*1e6/float64(hi-lo))
	}
	nominal := seg.hi - seg.lo
	all := firstPushes(pushes, seg.lo, seg.hi)
	cpu := (seg.cpuAt[windows] - seg.cpuAt[0]).Seconds() * 1e6 / float64(nominal)
	r.lay["loadgen.push_p50_ms"] = median(wP50)
	r.lay["loadgen.push_p90_ms"] = median(wP90)
	r.lay["loadgen.push_p99_ms"] = msNS(quantile(all, 0.99))
	r.lay["loadgen.push_samples"] = float64(len(all))
	if r.opt.trace {
		// Even windows were traced and odd ones not (see openLoop); the
		// difference in CPU per event between them is the tracing overhead.
		var cpuOn, cpuOff time.Duration
		var nOn, nOff int
		for k := 0; k < windows; k++ {
			d, n := seg.cpuAt[k+1]-seg.cpuAt[k], seg.marks[k+1]-seg.marks[k]
			if k%2 == 0 {
				cpuOn, nOn = cpuOn+d, nOn+n
			} else {
				cpuOff, nOff = cpuOff+d, nOff+n
			}
		}
		on, off := us(cpuOn)/float64(nOn), us(cpuOff)/float64(nOff)
		r.lay["trace.cpu_us_per_event"] = on
		r.lay["trace.overhead_us_per_event"] = on - off
	}
	info = append(info,
		fmt.Sprintf("samples: %d pushing events in the segment; setups %.3f s; generator done at %.2fs of the segment",
			len(all), setups, float64(seg.genEnd-seg.start)/1e9),
		fmt.Sprintf("windows: push p50 %.3f ms, push p90 %.3f ms, cpu %.1f us/event", wP50, wP90, wCPU))
	if r.sp.recovery {
		info = append(info, fmt.Sprintf("restore_s %.4f s (mean kill -> live over %d cycles)", r.lay["recovery.restore_s"], r.sz.restoreCycles))
	}
	return []metric{
		{"setup_s", "s", median(setups)},
		{"cpu_us_per_event", "us", cpu},
	}, info
}

// layerMetrics fills in the per-layer metrics from the segment, the
// progress samples and, in a traced run, the spans, which it also writes
// out.
func (r *runner) layerMetrics(seg *segment) error {
	lay := r.lay
	for k, v := range seg.layerSnapshots {
		lay[k] = v
	}
	lay["loadgen.late_ms_p99"] = msNS(quantile(seg.late, 0.99))
	lay["loadgen.late_ms_max"] = msNS(quantile(seg.late, 1))
	lay["runtime.heap_mib"] = float64(seg.heap) / (1 << 20)
	lay["cluster.backlog_max"] = float64(r.backlogMax(uint64(seg.lo), uint64(seg.hi)))
	lay["runtime.gc_cycles"] = float64(seg.ms1.NumGC - seg.ms0.NumGC)
	lay["runtime.gc_pause_ms_total"] = msNS(int64(seg.ms1.PauseTotalNs - seg.ms0.PauseTotalNs))
	lay["runtime.goroutines_max"] = float64(r.goroutinesMax())
	lay["core.candidates_per_event"] = seg.candsPerEvent
	if !r.opt.trace {
		return nil
	}
	spans := r.tr.snapshot()
	var pub []int64
	var busy int64
	for _, s := range spans {
		if s.name == "publish" && s.parent == seg.span {
			pub = append(pub, s.end-s.start)
			busy += s.end - s.start
		}
	}
	var traced int64
	for k := 0; k < windows; k += 2 {
		traced += seg.wallAt[k+1] - seg.wallAt[k]
	}
	lay["cluster.publish_us_p50"] = float64(quantile(pub, 0.5)) / 1e3
	lay["cluster.publish_us_p99"] = float64(quantile(pub, 0.99)) / 1e3
	lay["cluster.publish_busy_frac"] = float64(busy) / float64(traced)
	self := selfTimes(spans)
	for _, name := range selfTimeNames {
		lay["trace.self_ms."+name] = ms(self[name])
	}
	lay["trace.spans"] = float64(len(spans))
	path := filepath.Join(r.opt.workdir, "trace-"+r.sp.name+".jsonl")
	if err := r.tr.write(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.logf("trace: %d spans written to %s\n", len(spans), path)
	return nil
}

// onNotify records every delivered push and, for timed events, its
// latency from the trigger event's scheduled send.
func (r *runner) onNotify(n delivery.Notification) {
	start := r.now()
	idx := r.in.eventIndex(n.Candidate.Trigger)
	r.mu.Lock()
	r.notes = append(r.notes, note{n.Candidate.User, n.Candidate.Item, n.Candidate.Program})
	if idx < 0 {
		r.unmatched++
	} else if due := r.sched[idx].Load(); due > 0 {
		r.pushes = append(r.pushes, pushSample{int32(idx), start - due})
	}
	r.mu.Unlock()
	if r.tr.recording() {
		r.tr.add("notify", int64(idx), -1, start, r.now())
	}
}

// firstPushes returns, for every event in [lo, hi) that caused a push,
// the latency of its first push. One event can cause hundreds of pushes
// that leave together; counting each would let a few such events decide
// the percentiles.
func firstPushes(pushes []pushSample, lo, hi int) []int64 {
	first := map[int32]int64{}
	for _, p := range pushes {
		if int(p.idx) < lo || int(p.idx) >= hi {
			continue
		}
		if v, ok := first[p.idx]; !ok || p.lat < v {
			first[p.idx] = p.lat
		}
	}
	out := make([]int64, 0, len(first))
	for _, v := range first {
		out = append(out, v)
	}
	return out
}

func (r *runner) publish(i int, parent int32, start int64) {
	if err := r.dep.front.Publish(r.in.stream[i]); err != nil {
		r.publishErrs++
	}
	r.next = i + 1
	r.published.Store(uint64(i + 1))
	if r.tr.recording() {
		r.tr.add("publish", int64(i), parent, start, r.now())
	}
}

// openLoop publishes events [lo, hi) on a fixed schedule at rate events/s
// and returns how late each send was, and the process CPU time and the
// time read just before each event index in marks (and at the end, for
// mark hi). The marks split the events into windows; in a traced run,
// spans are recorded in even windows only, so the odd ones measure the
// same work without tracing.
func (r *runner) openLoop(lo, hi int, rate float64, parent int32, marks []int) ([]int64, []time.Duration, []int64) {
	start := r.now() + int64(time.Millisecond)
	step := float64(time.Second) / rate
	for i := lo; i < hi; i++ {
		r.sched[i].Store(start + int64(float64(i-lo)*step))
	}
	late := make([]int64, 0, hi-lo)
	var cpu []time.Duration
	var wall []int64
	defer r.tr.pause(false)
	for i := lo; i < hi; i++ {
		for len(cpu) < len(marks) && marks[len(cpu)] == i {
			r.tr.pause(len(cpu)%2 == 1)
			cpu = append(cpu, rusage())
			wall = append(wall, r.now())
		}
		due := r.sched[i].Load()
		if d := due - r.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		t := r.now()
		late = append(late, t-due)
		r.publish(i, parent, t)
	}
	for len(cpu) < len(marks) {
		cpu = append(cpu, rusage())
		wall = append(wall, r.now())
	}
	return late, cpu, wall
}

// readPhase makes the reads closed loop, one after another, with the
// generator paused, records their latency quantiles and the broker's
// counters, and returns how many failed.
func (r *runner) readPhase() (errs int) {
	r.logf("read phase: %d reads\n", len(r.in.readUsers))
	s := r.tr.open("reads", -1, -1)
	lat := make([]int64, 0, len(r.in.readUsers))
	for j, u := range r.in.readUsers {
		t := r.now()
		if _, err := r.dep.front.RecommendationsFor(u); err != nil {
			errs++
		}
		end := r.now()
		lat = append(lat, end-t)
		r.tr.add("read", int64(j), s, t, end)
	}
	r.tr.close(s)
	r.lay["broker.read_ms_p50"] = msNS(quantile(lat, 0.5))
	r.lay["broker.read_ms_p90"] = msNS(quantile(lat, 0.9))
	q, f := r.dep.front.Broker().Stats()
	r.lay["broker.queries"] = float64(q)
	r.lay["broker.failures"] = float64(f)
	return errs
}

func (r *runner) slots() uint64 { return partitions * replicas }

func (r *runner) backlog() int64 {
	return int64(r.published.Load()*r.slots()) - int64(r.dep.applied())
}

// drain waits until every replica has applied every published event and
// delivery has gone quiet.
func (r *runner) drain() error {
	deadline := time.Now().Add(2 * time.Minute)
	for r.backlog() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("backlog of %d applications did not drain", r.backlog())
		}
		time.Sleep(2 * time.Millisecond)
	}
	last, quiet := r.dep.front.Pipeline().Stats().Raw, 0
	for quiet < 3 {
		time.Sleep(10 * time.Millisecond)
		now := r.dep.front.Pipeline().Stats().Raw
		if now == last {
			quiet++
		} else {
			last, quiet = now, 0
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("delivery did not go quiet")
		}
	}
	return nil
}

func (r *runner) dEdges() (int64, error) {
	p, err := r.dep.replica()
	if err != nil {
		return 0, err
	}
	return p.Engine().Dynamic().Stats().Edges, nil
}

// startSampler records progress counters every 10ms until the returned
// function is called; calling it again is harmless.
func (r *runner) startSampler() func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			s := sample{at: r.now(), published: r.published.Load(), goroutines: runtime.NumGoroutine()}
			s.applied, s.cands = r.dep.applied(), r.dep.candidates()
			r.smu.Lock()
			r.samples = append(r.samples, s)
			r.smu.Unlock()
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			<-done
		})
	}
}

// candsPerEvent is the median, over blocks of at least 1000 events, of
// candidates per event (summed over the partitions of one replica set)
// while the published count was in [lo, hi].
func (r *runner) candsPerEvent(lo, hi uint64) float64 {
	r.smu.Lock()
	defer r.smu.Unlock()
	var rates []float64
	var first *sample
	for i := range r.samples {
		s := &r.samples[i]
		if s.published < lo || s.published > hi {
			continue
		}
		if first == nil {
			first = s
			continue
		}
		if s.applied-first.applied >= 1000*r.slots() {
			rates = append(rates, float64(s.cands-first.cands)/float64(s.applied-first.applied)*partitions)
			first = s
		}
	}
	return median(rates)
}

func (r *runner) backlogMax(lo, hi uint64) int64 {
	r.smu.Lock()
	defer r.smu.Unlock()
	var m int64
	for _, s := range r.samples {
		if s.published >= lo && s.published <= hi {
			m = max(m, int64(s.published*r.slots())-int64(s.applied))
		}
	}
	return m
}

func (r *runner) goroutinesMax() int {
	r.smu.Lock()
	defer r.smu.Unlock()
	m := 0
	for _, s := range r.samples {
		m = max(m, s.goroutines)
	}
	return m
}

// recover runs kill -> restore -> live cycles, then reprovision -> live
// cycles, on replica (0, 1) with the generator paused.
func (r *runner) recover() error {
	c := r.dep.front
	const pid, rep = 0, 1
	sRec := r.tr.open("recovery", -1, -1)
	defer r.tr.close(sRec)
	var total, call, catchup time.Duration
	for i := 0; i < r.sz.restoreCycles; i++ {
		t0 := time.Now()
		s := r.tr.open("recovery.kill", int64(i), sRec)
		if err := c.KillReplica(pid, rep); err != nil {
			return err
		}
		r.tr.close(s)
		t1 := time.Now()
		s = r.tr.open("recovery.restore", int64(i), sRec)
		if err := c.RestoreReplica(pid, rep); err != nil {
			return err
		}
		r.tr.close(s)
		t2 := time.Now()
		s = r.tr.open("recovery.await", int64(i), sRec)
		if err := c.AwaitReplicaLive(pid, rep, 2*time.Minute); err != nil {
			return err
		}
		r.tr.close(s)
		t3 := time.Now()
		total += t3.Sub(t0)
		call += t2.Sub(t1)
		catchup += t3.Sub(t2)
	}
	var reprov time.Duration
	for i := 0; i < r.sz.reprovisionCycles; i++ {
		t0 := time.Now()
		s := r.tr.open("recovery.reprovision", int64(i), sRec)
		if err := c.ReprovisionReplica(pid, rep); err != nil {
			return err
		}
		if err := c.AwaitReplicaLive(pid, rep, 2*time.Minute); err != nil {
			return err
		}
		r.tr.close(s)
		reprov += time.Since(t0)
	}
	n := time.Duration(r.sz.restoreCycles)
	lay := r.lay
	lay["recovery.restore_s"] = (total / n).Seconds()
	lay["recovery.restore_call_ms"] = ms(call / n)
	lay["recovery.catchup_ms"] = ms(catchup / n)
	lay["recovery.reprovision_ms"] = ms(reprov / time.Duration(r.sz.reprovisionCycles))
	return nil
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// rusage returns the process's user plus system CPU time.
func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func msNS(ns int64) float64      { return float64(ns) / 1e6 }
