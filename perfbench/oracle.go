package main

import (
	"fmt"
	"sync"

	"light"
)

// refJob is one reference count: a serial run of the SE baseline, an
// enumeration path independent of the LIGHT plans the workloads time.
type refJob struct {
	key  string
	p    *light.Pattern
	opts light.Options // Snapshot and Filter may be set; Algorithm and Workers are forced
}

// references runs jobs on par goroutines, outside any timed window,
// and returns the counts by key.
func references(g *light.Graph, jobs []refJob, par int) (map[string]uint64, error) {
	out := make(map[string]uint64, len(jobs))
	var mu sync.Mutex
	var firstErr error
	ch := make(chan refJob)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				opts := j.opts
				opts.Algorithm, opts.Workers = light.SE, 1
				res, err := light.Count(g, j.p, opts)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s: %w", j.key, err)
				}
				out[j.key] = res.Matches
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return out, firstErr
}

// patternSet resolves catalog names once.
func patternSet(names []string) (map[string]*light.Pattern, error) {
	out := make(map[string]*light.Pattern, len(names))
	for _, n := range names {
		p, err := light.PatternByName(n)
		if err != nil {
			return nil, err
		}
		out[n] = p
	}
	return out, nil
}

// ordered returns pats[n] for each of names, in order.
func ordered(pats map[string]*light.Pattern, names []string) []*light.Pattern {
	out := make([]*light.Pattern, len(names))
	for i, n := range names {
		out[i] = pats[n]
	}
	return out
}
