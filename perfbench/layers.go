package main

import (
	"time"

	"motifstream/internal/graph"
	"motifstream/internal/partition"
	"motifstream/internal/statstore"
)

// layerNames are the per-layer metrics a traced run reports, in print
// order. A metric that does not apply to a workload reads 0.
var layerNames = []struct{ name, unit string }{
	{"ladder.max_eps", "events/s"},
	{"cluster.publish_us_p50", "us"},
	{"cluster.publish_us_p99", "us"},
	{"cluster.publish_busy_frac", "fraction"},
	{"cluster.backlog_max", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"cluster.apply_batch_mean", "count"},
	{"cluster.apply_batch_p99", "count"},
	{"cluster.detect_ms_p50", "ms"},
	{"cluster.detect_ms_p99", "ms"},
	{"cluster.cut_pause_ms_p99", "ms"},
	{"cluster.checkpoints", "count"},
	{"core.ingest_us_p50", "us"},
	{"core.ingest_us_p99", "us"},
	{"core.query_us_p50", "us"},
	{"core.query_us_p99", "us"},
	{"core.candidates_per_event", "count"},
	{"core.shared_fraction", "fraction"},
	{"dynstore.edges", "count"},
	{"dynstore.bytes", "bytes"},
	{"statstore.build_s", "s"},
	{"statstore.bytes", "bytes"},
	{"motifdsl.compile_ms", "ms"},
	{"cluster.await_live_s", "s"},
	{"delivery.candidates", "count"},
	{"delivery.delivered", "count"},
	{"delivery.delivered_frac", "fraction"},
	{"broker.queries", "count"},
	{"broker.failures", "count"},
	{"broker.read_ms_p50", "ms"},
	{"broker.read_ms_p90", "ms"},
	{"transport.cands_rtt_ms_p50", "ms"},
	{"transport.cands_rtt_ms_p99", "ms"},
	{"transport.reconnects", "count"},
	{"recovery.restore_s", "s"},
	{"recovery.restore_call_ms", "ms"},
	{"recovery.catchup_ms", "ms"},
	{"recovery.reprovision_ms", "ms"},
	{"cluster.base_pool_restores", "count"},
	{"runtime.heap_mib", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.goroutines_max", "count"},
	{"loadgen.push_p50_ms", "ms"},
	{"loadgen.push_p90_ms", "ms"},
	{"loadgen.push_p99_ms", "ms"},
	{"loadgen.push_samples", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_us_per_event", "us"},
	{"trace.cpu_us_per_event", "us"},
	{"trace.self_ms.publish", "ms"},
	{"trace.self_ms.notify", "ms"},
	{"trace.self_ms.read", "ms"},
	{"trace.self_ms.nominal", "ms"},
	{"trace.self_ms.setup.new_cluster", "ms"},
	{"trace.self_ms.setup.worker_join", "ms"},
	{"trace.self_ms.setup.await_live", "ms"},
	{"trace.self_ms.statstore.build", "ms"},
	{"trace.self_ms.motifdsl.compile", "ms"},
	{"trace.self_ms.recovery.restore", "ms"},
	{"trace.self_ms.recovery.await", "ms"},
	{"trace.self_ms.recovery.reprovision", "ms"},
	{"trace.self_ms.snapshot", "ms"},
}

// selfTimeNames are the span names whose summed self time is reported.
var selfTimeNames = []string{
	"publish", "notify", "read", "nominal",
	"setup.new_cluster", "setup.worker_join", "setup.await_live",
	"statstore.build", "motifdsl.compile",
	"recovery.restore", "recovery.await", "recovery.reprovision",
	"snapshot",
}

// snapshotLayers reads the layer registries at the end of the measured
// segment.
func (r *runner) snapshotLayers() map[string]float64 {
	s := r.tr.open("snapshot", -1, -1)
	defer r.tr.close(s)
	out := map[string]float64{}
	regs := r.dep.registries()
	engines := r.dep.engineRegistries()
	batch := histogram(engines, "cluster.apply_batch_size")
	out["cluster.apply_batch_mean"] = float64(batch.Mean)
	out["cluster.apply_batch_p99"] = float64(batch.P99)
	detect := histogram(regs, "cluster.detect_latency_wall")
	out["cluster.detect_ms_p50"] = ms(detect.P50)
	out["cluster.detect_ms_p99"] = ms(detect.P99)
	out["cluster.cut_pause_ms_p99"] = ms(histogram(engines, "cluster.checkpoint_cut_pause").P99)
	out["cluster.checkpoints"] = float64(sumCounter(engines, "cluster.checkpoints"))
	ingest := histogram(engines, "engine.ingest_latency")
	query := histogram(engines, "engine.query_latency")
	out["core.ingest_us_p50"] = us(ingest.P50)
	out["core.ingest_us_p99"] = us(ingest.P99)
	out["core.query_us_p50"] = us(query.P50)
	out["core.query_us_p99"] = us(query.P99)
	if p, err := r.dep.replica(); err == nil {
		ds := p.Engine().Dynamic().Stats()
		out["dynstore.edges"] = float64(ds.Edges)
		out["dynstore.bytes"] = float64(ds.Bytes)
		out["core.shared_fraction"] = p.Engine().Sharing().SharedFraction()
	}
	funnel := r.dep.front.Pipeline().Stats()
	out["delivery.candidates"] = float64(funnel.Raw)
	out["delivery.delivered"] = float64(funnel.Delivered)
	out["delivery.delivered_frac"] = funnel.DeliveryRate()
	rtt := histogram(engines, "transport.cands.rtt")
	out["transport.cands_rtt_ms_p50"] = ms(rtt.P50)
	out["transport.cands_rtt_ms_p99"] = ms(rtt.P99)
	return out
}

// timeStaticBuild times statstore.Builder.Build for every partition on
// the run's static edges, as each replica's setup does.
func timeStaticBuild(in *inputs, tr *tracer) (time.Duration, uint64) {
	hp := partition.NewHashPartitioner(partitions)
	var total time.Duration
	var bytes uint64
	for pid := 0; pid < partitions; pid++ {
		b := &statstore.Builder{
			Keep:           func(a graph.VertexID) bool { return hp.PartitionOf(a) == pid },
			MaxInfluencers: 200,
		}
		s := tr.open("statstore.build", int64(pid), -1)
		start := time.Now()
		snap := b.Build(in.static)
		total += time.Since(start)
		tr.close(s)
		bytes += snap.MemoryBytes()
	}
	return total, bytes
}
