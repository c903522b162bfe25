package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"motifstream/internal/delivery"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/motifdsl"
	"motifstream/internal/workload"
)

// The deployment every workload runs: the trajectory's 4 partitions x 2
// replicas with batched apply, a 10-minute diamond window and the same D
// retention.
const (
	partitions   = 4
	replicas     = 2
	window       = 10 * time.Minute
	applyBatch   = 16
	applyWorkers = 2
	// eventsPerCut is the trajectory's checkpoint cadence: its 200k-event
	// stream spans 20s of stream time and cuts every 2s, one cut per 20k
	// events. The checkpoint interval is stream time, so it is derived
	// from each workload's stream rate to keep this cadence.
	eventsPerCut = 20_000
)

// sizes are the input dimensions; tiny exists for the self-tests.
type sizes struct {
	users, follows int
	// warmWindows is the stream time the warm-up covers, in D windows.
	warmWindows float64
	rungSeconds float64
	// restoreCycles and reprovisionCycles size the recovery phase.
	restoreCycles, reprovisionCycles int
}

var sizeTable = map[string]sizes{
	"full": {users: 20_000, follows: 30, warmWindows: 2.5, rungSeconds: 1.5, restoreCycles: 3, reprovisionCycles: 1},
	"tiny": {users: 2_000, follows: 10, warmWindows: 1.5, rungSeconds: 0.3, restoreCycles: 1, reprovisionCycles: 1},
}

// inputs is everything generated from the seed before the deployment is
// built. Only static and stream reach the program.
type inputs struct {
	static []graph.Edge
	// stream has strictly increasing timestamps, so a notification's
	// trigger timestamp identifies the event that caused it.
	stream []graph.Edge
	// readUsers is the user of each read in the read phase.
	readUsers []graph.VertexID
}

// graphSeed pins the static follow graph to the trajectory's graph. The
// graph is the deployment's offline data, built once; the traffic (the
// event stream and the read users) comes from the run's
// seed. How many candidates an event yields depends mostly on which
// accounts the graph makes popular, so a per-seed graph would make every
// run a different deployment.
const graphSeed = 1

// generate builds the inputs of one run. events is the stream length.
func generate(sz sizes, seed int64, events, reads int) *inputs {
	in := &inputs{
		static: workload.GenFollowGraph(workload.GraphConfig{
			Users: sz.users, AvgFollows: sz.follows, ZipfS: 1.35, Seed: graphSeed,
		}),
		stream: workload.GenEventStream(workload.StreamConfig{
			Users: sz.users, Events: events, Rate: streamRate,
			BurstFraction: 0.35, BurstMeanSize: 12, BurstWindow: window,
			ContentFraction: 0.25, ZipfS: 1.35, Seed: seed + 1,
		}),
	}
	for i := 1; i < len(in.stream); i++ {
		if in.stream[i].TS <= in.stream[i-1].TS {
			in.stream[i].TS = in.stream[i-1].TS + 1
		}
	}
	r := rand.New(rand.NewSource(seed + 2))
	z := rand.NewZipf(r, 1.1, 1, uint64(sz.users-1))
	in.readUsers = make([]graph.VertexID, reads)
	for i := range in.readUsers {
		in.readUsers[i] = graph.VertexID(z.Uint64())
	}
	return in
}

// eventIndex returns the stream index of the event with timestamp ts, or
// -1.
func (in *inputs) eventIndex(e graph.Edge) int {
	lo, hi := 0, len(in.stream)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if in.stream[mid].TS < e.TS {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(in.stream) && in.stream[lo] == e {
		return lo
	}
	return -1
}

func primaryDiamond() motif.Program {
	return motif.NewDiamond(motif.DiamondConfig{K: 3, Window: window, MaxFanout: 64})
}

// programs returns one replica's programs: the primary k=3 diamond and
// the motif family compiled from the DSL, as the facade's RegisterMotifs
// does for every replica. The run compiles the family once before any
// deployment is built, so a compile error here is a bug.
func programs() []motif.Program {
	family, err := motifdsl.Compile(familyMotifs())
	if err != nil {
		panic(fmt.Sprintf("motif family: %v", err))
	}
	return append([]motif.Program{primaryDiamond()}, family...)
}

func dynamicOptions() dynstore.Options {
	return dynstore.Options{Retention: window, MaxPerTarget: 1024}
}

// deliveryOptions disables sleep hours and fatigue so the delivered set
// depends only on detection and (user, item) dedup.
func deliveryOptions() delivery.Options {
	return delivery.Options{
		SleepStartHour:   delivery.SleepDisabled,
		SleepEndHour:     delivery.SleepDisabled,
		MaxPerUserPerDay: 1 << 30,
	}
}

// familySize is how many motifs familyMotifs declares.
const familySize = 4

// familyMotifs is a small standing set run beside the diamond: a
// 10-minute follow family like those of the benchmark trajectory's T5
// set, at thresholds k=3..6. Its plans share one probe prefix, so every
// event runs through the planned-program interpreter and the engine's
// shared execution trie. Fanout is capped at 16 (T5 uses 32-128), which
// keeps the family to about a quarter of the per-event cost and the
// deployment's capacity near that of the diamond alone.
func familyMotifs() string {
	var sb strings.Builder
	for k := 3; k < 3+familySize; k++ {
		fmt.Fprintf(&sb, `
motif "follow-k%d" {
    match A -> B;
    match B =[follow]=> C within 10m;
    where count(B) >= %d;
    emit C to A via B;
    limit fanout 16;
    limit candidates 4;
}`, k, k)
	}
	return sb.String()
}
