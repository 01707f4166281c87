package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"streamkm/internal/dataset"
	"streamkm/internal/engine"
	"streamkm/internal/grid"
	"streamkm/internal/loadgen"
	"streamkm/internal/obs"
	"streamkm/internal/trace"
)

// batch-cells is the paper's own workload: partial/merge k-means over
// grid cells stored as bucket files. Lloyd iterations in the partial
// stage do nearly all the work and the serving layer does none.
const (
	batchCells       = 13 // odd, so a per-Execute median is one cell's answer
	batchCellPoints  = 25000
	batchK           = 40
	batchRestarts    = 10
	batchChunkPoints = 5000 // ~5 chunks per cell
	batchClones      = 2
	batchSetups      = 15
	batchMinExecutes = 2
)

// batchPointBytes is the optimizer's per-point memory estimate for the
// corpus's 6-d points; the budget below buys ~batchChunkPoints per chunk.
const batchPointBytes = 6*8 + 48

func runBatchCells(rc *runConfig) (*outcome, error) {
	out := newOutcome()
	dir := filepath.Join(rc.work, "cells")
	if err := writeCells(dir, rc.seed); err != nil {
		return nil, err
	}
	// Only the system under test counts towards peak RSS: return the
	// generator's memory and reset the high-water mark before set-up.
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("resetting peak RSS: %w", err)
	}

	q := engine.Query{K: batchK, Restarts: batchRestarts, Seed: rc.seed}
	res := engine.Resources{MemoryBytes: batchChunkPoints * batchPointBytes, Workers: batchClones}
	var (
		cells                 []engine.Cell
		plan                  engine.PhysicalPlan
		setupS, indexS, loadS []float64
	)
	for i := 0; i < batchSetups; i++ {
		// Each set-up starts from the same heap: the last one's cells
		// are collected, untimed, before the next is timed.
		cells = nil
		runtime.GC()
		var err error
		start := time.Now()
		cells, plan, err = setUpCells(rc, dir, q, res, &indexS, &loadS)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	total := 0
	for _, c := range cells {
		total += c.Points.Len()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d cells, %d points; plan: %d-point chunks x%d clones\n",
		len(cells), total, plan.ChunkPoints, plan.PartialClones)

	var (
		tputs, chunkMS, cellMS []float64
		tracedS, plainS        []float64
		execS, partialBusy     []float64
		mergeBusy              []float64
		first                  []engine.CellResult
		lastReport             *obs.Report
	)
	// Execute while the next one, as long as the last, still ends
	// within --seconds.
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	last := time.Duration(0)
	for rep := 0; rep < batchMinExecutes || time.Now().Add(last).Before(deadline); rep++ {
		// In a traced run every other Execute is traced, so the two
		// halves give the tracing overhead.
		traced := rc.tr != nil && rep%2 == 0
		etr := trace.New(0)
		done := func() {}
		if traced {
			done = rc.tr.span("engine.Execute", strconv.Itoa(rep))
		}
		start := time.Now()
		results, stats, err := engine.NewExec(q, plan, engine.WithTracer(etr)).Execute(context.Background(), cells)
		elapsed := time.Since(start)
		done()
		last = elapsed
		out.attempted += int64(len(cells))
		if err != nil {
			out.failed += int64(len(cells))
			out.check(false, "execute %d: %v", rep, err)
			continue
		}
		if traced {
			lastReport = stats.Report()
			tracedS = append(tracedS, time.Since(start).Seconds())
			execS = append(execS, elapsed.Seconds())
			partialBusy = append(partialBusy, gauge(lastReport.Metrics, obs.StreamBusySeconds, plan.PartialStage))
			mergeBusy = append(mergeBusy, gauge(lastReport.Metrics, obs.StreamBusySeconds, plan.MergeStage))
		} else {
			plainS = append(plainS, time.Since(start).Seconds())
		}
		out.failed += int64(checkCells(out, rep, cells, results, first))
		if first == nil {
			first = results
		}
		tputs = append(tputs, float64(total)/elapsed.Seconds())
		for _, s := range etr.Spans() {
			switch s.Op {
			case plan.PartialStage:
				chunkMS = append(chunkMS, ms(s.Duration()))
			case plan.MergeStage:
				cellMS = append(cellMS, ms(s.End))
			}
		}
	}
	mse := 0.0
	for _, r := range first {
		mse += r.PointMSE / float64(len(first))
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	report("cell chunk latency (ms)", chunkMS)
	report("cell answer latency (ms)", cellMS)

	// A chunk through the partial operator is one unit of input
	// absorbed; a cell's merge completing, timed from the start of the
	// Execute, is one answer delivered. Each series is pooled over the
	// Executes: at least 2 x 65 chunks, enough for a p90, but only
	// 13 answers per Execute, so the answers' p90 is a rank statistic
	// of fewer than the 100 samples the percentile rule wants.
	chunks, answers := sortedCopy(chunkMS), sortedCopy(cellMS)
	out.e2e["throughput_pps"] = median(tputs)
	out.e2e["ingest_p50_ms"] = percentile(chunks, 50)
	out.e2e["ingest_p90_ms"] = percentile(chunks, 90)
	out.e2e["query_p50_ms"] = percentile(answers, 50)
	out.e2e["query_p90_ms"] = percentile(answers, 90)
	out.e2e["success_rate"] = 1 - float64(out.failed)/float64(out.attempted)
	out.e2e["mse"] = mse
	out.e2e["peak_rss_mb"] = rss
	out.e2e["setup_s"] = median(setupS)

	if rc.tr != nil {
		l := out.layers
		l["grid.index_s"] = median(indexS)
		l["grid.load_s"] = median(loadS)
		l["engine.execute_s"] = median(execS)
		l["engine.partial_busy_s"] = median(partialBusy)
		l["engine.merge_busy_s"] = median(mergeBusy)
		l["engine.clone_utilization"] = median(partialBusy) / (float64(plan.PartialClones) * median(execS))
		if lastReport != nil {
			m := lastReport.Metrics
			l["stream.chunks_highwater"] = gauge(m, obs.QueueHighWater, "chunks")
			l["stream.partials_highwater"] = gauge(m, obs.QueueHighWater, "partials")
			l["kmeans.partial_iterations"] = float64(m.Counter(obs.KMeansIterations, plan.PartialStage))
			l["kmeans.merge_iterations"] = float64(m.Counter(obs.KMeansIterations, plan.MergeStage))
			l["kmeans.restarts"] = float64(m.Counter(obs.KMeansRestarts, plan.PartialStage))
		}
		l["trace.overhead_frac"] = median(tracedS)/median(plainS) - 1
	}
	return out, nil
}

// writeCells is the untimed preparation: each cell is a 25k-point draw
// from its own stream of the seeded corpus, stored as a bucket file.
func writeCells(dir string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	corpus, err := loadgen.NewCorpus(loadgen.CorpusSpec{Seed: seed})
	if err != nil {
		return err
	}
	for i := 0; i < batchCells; i++ {
		set, err := dataset.NewSet(corpus.Dim())
		if err != nil {
			return err
		}
		for _, p := range corpus.Stream(i).Batch(batchCellPoints) {
			if err := set.AppendFlat(p); err != nil {
				return err
			}
		}
		key := grid.CellKey{Lat: 30 + i, Lon: 110}
		if err := grid.WriteBucketFile(filepath.Join(dir, grid.BucketFileName(key)), key, set); err != nil {
			return err
		}
	}
	return nil
}

// setUpCells is one timed set-up: index the directory, load every
// bucket, and plan the query.
func setUpCells(rc *runConfig, dir string, q engine.Query, res engine.Resources, indexS, loadS *[]float64) ([]engine.Cell, engine.PhysicalPlan, error) {
	var index []grid.IndexEntry
	var err error
	d := rc.tr.time("grid.IndexDir", func() { index, err = grid.IndexDir(dir) })
	if err != nil {
		return nil, engine.PhysicalPlan{}, err
	}
	*indexS = append(*indexS, d.Seconds())
	var cells []engine.Cell
	var sizes []int
	load := time.Duration(0)
	for _, e := range index {
		var key grid.CellKey
		var set *dataset.Set
		load += rc.tr.time("grid.ReadBucketFile", func() { key, set, err = grid.ReadBucketFile(e.Path) })
		if err != nil {
			return nil, engine.PhysicalPlan{}, err
		}
		cells = append(cells, engine.Cell{Key: key, Points: set})
		sizes = append(sizes, set.Len())
	}
	*loadS = append(*loadS, load.Seconds())
	if len(cells) == 0 {
		return nil, engine.PhysicalPlan{}, fmt.Errorf("no bucket files in %s", dir)
	}
	var plan engine.PhysicalPlan
	rc.tr.time("engine.Optimize", func() { plan, err = engine.Optimize(q, sizes, cells[0].Points.Dim(), res) })
	return cells, plan, err
}

// checkCells verifies one Execute's answers: one result per cell, k
// finite centroids whose weights sum to the cell's point count, and
// the same answer bit for bit as the first Execute. It returns the
// number of cells that failed.
func checkCells(out *outcome, rep int, cells []engine.Cell, results, first []engine.CellResult) int {
	if len(results) != len(cells) {
		out.check(false, "execute %d: %d results for %d cells", rep, len(results), len(cells))
		return len(cells)
	}
	bad := 0
	for i, r := range results {
		ok := r.Result != nil && len(r.Result.Centroids) == batchK && len(r.Result.Weights) == batchK
		sum := 0.0
		if ok {
			for j, c := range r.Result.Centroids {
				sum += r.Result.Weights[j]
				for _, v := range c {
					ok = ok && !math.IsNaN(v) && !math.IsInf(v, 0)
				}
			}
		}
		ok = ok && sum == float64(cells[i].Points.Len()) && !math.IsNaN(r.PointMSE)
		out.check(ok, "execute %d cell %v: malformed answer (weights sum %v, want %d)", rep, r.Key, sum, cells[i].Points.Len())
		if ok && first != nil {
			same := r.PointMSE == first[i].PointMSE
			for j := range r.Result.Centroids {
				for d := range r.Result.Centroids[j] {
					same = same && r.Result.Centroids[j][d] == first[i].Result.Centroids[j][d]
				}
			}
			out.check(same, "execute %d cell %v: answer differs from the first execute", rep, r.Key)
			ok = same
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// gauge looks up a gauge in a metrics snapshot (0 when absent).
func gauge(s obs.Snapshot, name, stage string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name && g.Stage == stage {
			return g.Value
		}
	}
	return 0
}

// report prints a latency series by the percentile rule.
func report(what string, samples []float64) {
	s := summarize(samples)
	fmt.Fprintf(os.Stderr, "perfbench: %s: n=%d p50=%.4g p%s=%.4g\n", what, s.N, s.P50,
		strconv.FormatFloat(s.TailPct, 'f', -1, 64), s.Tail)
}
