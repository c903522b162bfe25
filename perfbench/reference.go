package main

import (
	"fmt"
	"sync"

	"motifstream/internal/delivery"
	"motifstream/internal/graph"
	"motifstream/internal/partition"
)

// note identifies one delivered push.
type note struct {
	user, item graph.VertexID
	program    string
}

// reference computes the pushes the deployment must deliver for
// stream[:n] without the cluster: each partition's detection engine is
// built directly from the partition package and fed the events in order,
// and its candidates pass through a delivery pipeline with the same
// options. Users are partition-disjoint and delivery suppression is
// per user, so one pipeline per partition yields the same set as the
// cluster's single delivery tier.
func reference(in *inputs, n int) (map[note]int, error) {
	hp := partition.NewHashPartitioner(partitions)
	results := make([][]note, partitions)
	errs := make([]error, partitions)
	var wg sync.WaitGroup
	for pid := 0; pid < partitions; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			p, err := partition.New(partition.Config{
				ID:             pid,
				StaticEdges:    in.static,
				Partitioner:    hp,
				MaxInfluencers: 200,
				Dynamic:        dynamicOptions(),
				Programs:       programs(),
			})
			if err != nil {
				errs[pid] = fmt.Errorf("reference partition %d: %w", pid, err)
				return
			}
			pl := delivery.NewPipeline(deliveryOptions())
			var out []note
			for _, e := range in.stream[:n] {
				for _, c := range p.Apply(e) {
					if _, n := pl.Offer(c, 0); n != nil {
						out = append(out, note{n.Candidate.User, n.Candidate.Item, n.Candidate.Program})
					}
				}
			}
			results[pid] = out
		}(pid)
	}
	wg.Wait()
	ref := map[note]int{}
	for pid := range results {
		if errs[pid] != nil {
			return nil, errs[pid]
		}
		for _, nt := range results[pid] {
			ref[nt]++
		}
	}
	return ref, nil
}

// compare returns how many reference pushes the deployment did not
// deliver and how many it delivered beyond the reference.
func compare(ref map[note]int, got []note) (missing, extra int) {
	left := make(map[note]int, len(ref))
	for k, v := range ref {
		left[k] = v
	}
	for _, nt := range got {
		if left[nt] > 0 {
			left[nt]--
		} else {
			extra++
		}
	}
	for _, v := range left {
		missing += v
	}
	return missing, extra
}
