package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"motifstream/internal/cluster"
	"motifstream/internal/delivery"
	"motifstream/internal/metrics"
	"motifstream/internal/partition"
)

// deployment is one running system under test. front takes the firehose,
// serves reads and runs delivery (the local cluster, or the hub);
// engines are the clusters whose replicas run detection (the local
// cluster itself, or the workers).
type deployment struct {
	front   *cluster.Cluster
	engines []*cluster.Cluster
	workers []chan error
	dir     string
}

// setupTimes splits one setup into construction and the wait until every
// replica slot is live.
type setupTimes struct {
	total, newCluster, awaitLive time.Duration
}

// checkpointInterval is eventsPerCut events of stream time.
const checkpointInterval = eventsPerCut * time.Second / streamRate

func clusterConfig(in *inputs, dir string, onNotify func(delivery.Notification)) cluster.Config {
	return cluster.Config{
		Partitions:         partitions,
		Replicas:           replicas,
		StaticEdges:        in.static,
		MaxInfluencers:     200,
		Dynamic:            dynamicOptions(),
		NewPrograms:        programs,
		Delivery:           deliveryOptions(),
		Seed:               1,
		OnNotify:           onNotify,
		CheckpointDir:      filepath.Join(dir, "ckpt"),
		LogDir:             filepath.Join(dir, "log"),
		CheckpointInterval: checkpointInterval,
		ApplyBatch:         applyBatch,
		ApplyWorkers:       applyWorkers,
	}
}

// deploy builds and starts the workload's deployment in dir and waits
// until every replica slot is live.
func deploy(sp spec, in *inputs, dir string, onNotify func(delivery.Notification), tr *tracer, parent int32) (d *deployment, st setupTimes, err error) {
	d = &deployment{dir: dir}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	start := time.Now()
	cfg := clusterConfig(in, dir, onNotify)
	sNew := tr.open("setup.new_cluster", -1, parent)
	if sp.networked {
		cfg.Listen = "127.0.0.1:0"
	}
	if d.front, err = cluster.New(cfg); err != nil {
		return d, st, fmt.Errorf("new cluster: %w", err)
	}
	d.front.Start()
	if !sp.networked {
		d.engines = []*cluster.Cluster{d.front}
	}
	for i := 0; sp.networked && i < replicas; i++ {
		// One worker per replica index, owning that index in every
		// partition, so the two copies of each partition run in different
		// worker clusters.
		sJoin := tr.open("setup.worker_join", int64(i), sNew)
		wcfg := cfg
		wcfg.Listen, wcfg.LogDir, wcfg.OnNotify = "", "", nil
		wcfg.Join = d.front.ListenAddr()
		for pid := 0; pid < partitions; pid++ {
			wcfg.OwnedReplicas = append(wcfg.OwnedReplicas, [2]int{pid, i})
		}
		w, err := cluster.New(wcfg)
		if err != nil {
			return d, st, fmt.Errorf("join worker %d: %w", i, err)
		}
		w.Start()
		done := make(chan error, 1)
		go func() { done <- w.Wait() }()
		d.engines = append(d.engines, w)
		d.workers = append(d.workers, done)
		tr.close(sJoin)
	}
	tr.close(sNew)
	st.newCluster = time.Since(start)
	sAwait := tr.open("setup.await_live", -1, parent)
	for pid := 0; pid < partitions; pid++ {
		for r := 0; r < replicas; r++ {
			if err := d.front.AwaitReplicaLive(pid, r, time.Minute); err != nil {
				return d, st, err
			}
		}
	}
	tr.close(sAwait)
	st.total = time.Since(start)
	st.awaitLive = st.total - st.newCluster
	return d, st, nil
}

// close stops the deployment, waits for every worker to exit and removes
// its directories.
func (d *deployment) close() error {
	var err error
	if d.front != nil {
		if len(d.workers) > 0 {
			d.front.Shutdown()
		} else {
			d.front.Stop()
		}
	}
	for i, done := range d.workers {
		if werr := <-done; werr != nil && err == nil {
			err = fmt.Errorf("worker %d: %w", i, werr)
		}
	}
	d.workers = nil
	if rerr := os.RemoveAll(d.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// registries returns the registries of the front and every engine
// cluster without duplicates.
func (d *deployment) registries() []*metrics.Registry {
	regs := []*metrics.Registry{d.front.Metrics()}
	for _, c := range d.engines {
		if c != d.front {
			regs = append(regs, c.Metrics())
		}
	}
	return regs
}

func (d *deployment) engineRegistries() []*metrics.Registry {
	regs := make([]*metrics.Registry, len(d.engines))
	for i, c := range d.engines {
		regs[i] = c.Metrics()
	}
	return regs
}

// applied is the number of (event, replica) applications so far; every
// replica consumes the whole firehose.
func (d *deployment) applied() uint64 { return sumCounter(d.engineRegistries(), "engine.events") }

func (d *deployment) candidates() uint64 {
	return sumCounter(d.engineRegistries(), "engine.candidates")
}

// replica returns replica (0, 0), wherever it runs.
func (d *deployment) replica() (*partition.Partition, error) {
	return d.engines[0].Replica(0, 0)
}

func sumCounter(regs []*metrics.Registry, name string) uint64 {
	var n uint64
	for _, r := range regs {
		n += r.Counter(name).Value()
	}
	return n
}

// histogram returns the snapshot of the named histogram from the registry
// that observed the most samples.
func histogram(regs []*metrics.Registry, name string) metrics.Snapshot {
	var best metrics.Snapshot
	for _, r := range regs {
		if s := r.Histogram(name).Snapshot(); s.Count > best.Count {
			best = s
		}
	}
	return best
}
