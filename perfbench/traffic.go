package main

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"streamkm/internal/obs"
	"streamkm/internal/trace"
)

// daemon-ingest is the daemon's capacity: a closed loop in which each
// of the two connections posts pre-encoded batches round-robin over
// its sessions, in rounds of ingestRoundBatches batches per session,
// for --seconds. Each round ends with one read-back query per session.
// The mse is taken once the prefill has filled every window, so it is
// a function of the seed and the prefill alone.
const (
	ingestRoundBatches = 32
	minRounds          = 3
	queryGroup         = 100
)

// reqRecord is one request as the client saw it.
type reqRecord struct {
	query      bool
	start, end time.Time
	ok         bool
}

func (q reqRecord) latencyMS() float64 { return ms(q.end.Sub(q.start)) }

// send issues one ingest (body != nil) or snapshot query to session s
// and records it, with a span labelled with its round when the round
// is traced.
func (r *daemonRun) send(s int, body []byte, round string) reqRecord {
	path := "/v1/sessions/" + r.sessions[s].ID
	method, name := http.MethodPost, "serve.POST points"
	if body == nil {
		method, name, path = http.MethodGet, "serve.GET clusters", path+"/clusters"
	} else {
		path += "/points"
	}
	done := func() {}
	if round != "" {
		done = r.rc.tr.span(name, r.sessions[s].ID, trace.Label{Key: "round", Value: round})
	}
	rec := reqRecord{query: body == nil, start: time.Now()}
	status, _, err := r.d.do(method, path, body)
	rec.end = time.Now()
	done()
	rec.ok = err == nil && status == http.StatusOK
	if body != nil {
		r.acked[s] = append(r.acked[s], rec.ok)
	}
	return rec
}

// round is one round of traffic.
type round struct {
	recs   []reqRecord
	points int64         // points acknowledged
	wall   time.Duration // first send until the last ingest answer
}

func (p round) series(query bool) []float64 {
	var v []float64
	for _, q := range p.recs {
		if q.query == query && q.ok {
			v = append(v, q.latencyMS())
		}
	}
	return v
}

// runRound encodes each session's next batches (untimed), posts them,
// and reads every session's clusters back once both connections have
// finished ingesting, so the read-backs time a read after the writes,
// not beside them. label is "" for an untraced round.
func (r *daemonRun) runRound(label string) round {
	bodies := r.nextBodies(ingestRoundBatches)
	recs := make([][]reqRecord, daemonConns)
	ingestEnd := make([]time.Time, daemonConns)
	start := time.Now()
	r.eachConn(func(conn int) error {
		for b := 0; b < ingestRoundBatches; b++ {
			for s := conn; s < daemonSessions; s += daemonConns {
				recs[conn] = append(recs[conn], r.send(s, bodies[s][b], label))
			}
		}
		ingestEnd[conn] = time.Now()
		return nil
	})
	r.eachConn(func(conn int) error {
		for s := conn; s < daemonSessions; s += daemonConns {
			recs[conn] = append(recs[conn], r.send(s, nil, label))
		}
		return nil
	})
	var p round
	end := start
	for _, e := range ingestEnd {
		if e.After(end) {
			end = e
		}
	}
	p.wall = end.Sub(start)
	for _, rs := range recs {
		for _, q := range rs {
			p.recs = append(p.recs, q)
			if !q.query && q.ok {
				p.points += batchPoints
			}
		}
	}
	return p
}

// runDaemonIngest runs rounds on the set-up daemon for --seconds,
// checks the answers, and fills the outcome. Throughput and each ingest
// latency percentile are the median over rounds of that round's
// figure; the read-back queries, 8 a round, are pooled into groups of
// at least queryGroup before their percentiles are taken. In a traced
// run every other round is traced: it records a span per request and
// scrapes the daemon's counters around itself, and the untraced rounds
// give the tracing overhead.
func runDaemonIngest(rc *runConfig) (*outcome, error) {
	r, err := newDaemonRun(rc)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var (
		tputs, ingP50, ingP90, qryP50, qryP90 []float64
		all, traced                           round
		qryGroup                              []float64
		tracedMean, plainMean                 []float64
		delta                                 serveDelta
		snapBefore                            snapStats
	)
	if rc.tr != nil {
		if snapBefore, err = r.d.snapshotStats(r.sessions); err != nil {
			r.d.kill()
			return nil, err
		}
	}
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	n := 0
	for ; n < minRounds || time.Now().Before(deadline); n++ {
		isTraced := rc.tr != nil && n%2 == 0
		label := ""
		var before obs.Snapshot
		if isTraced {
			if before, err = r.d.metrics(); err != nil {
				r.d.kill()
				return nil, err
			}
			label = strconv.Itoa(n)
		}
		done := rc.tr.span("perfbench.round", label)
		p := r.runRound(label)
		done()
		ingest := p.series(false)
		if isTraced {
			after, err := r.d.metrics()
			if err != nil {
				r.d.kill()
				return nil, err
			}
			delta.add(diffMetrics(before, after))
			traced.recs = append(traced.recs, p.recs...)
			tracedMean = append(tracedMean, mean(ingest))
		} else {
			plainMean = append(plainMean, mean(ingest))
		}
		for _, q := range p.recs {
			out.attempted++
			if !q.ok {
				out.failed++
			}
		}
		all.recs = append(all.recs, p.recs...)
		tputs = append(tputs, float64(p.points)/p.wall.Seconds())
		ingest = sortedCopy(ingest)
		ingP50 = append(ingP50, percentile(ingest, 50))
		ingP90 = append(ingP90, percentile(ingest, 90))
		if qryGroup = append(qryGroup, p.series(true)...); len(qryGroup) >= queryGroup {
			g := sortedCopy(qryGroup)
			qryP50 = append(qryP50, percentile(g, 50))
			qryP90 = append(qryP90, percentile(g, 90))
			qryGroup = qryGroup[:0]
		}
	}
	var snapAfter snapStats
	if rc.tr != nil {
		if snapAfter, err = r.d.snapshotStats(r.sessions); err != nil {
			r.d.kill()
			return nil, err
		}
	}
	if err := r.verify(out); err != nil {
		r.d.kill()
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}

	ingest := all.series(false)
	query := all.series(true)
	report("ingest latency (ms)", ingest)
	report("query latency (ms)", query)
	if len(qryP50) == 0 {
		// Too few queries for one group: pool them.
		s := sortedCopy(query)
		qryP50, qryP90 = []float64{percentile(s, 50)}, []float64{percentile(s, 90)}
	}
	out.e2e["throughput_pps"] = median(tputs)
	out.e2e["ingest_p50_ms"] = median(ingP50)
	out.e2e["ingest_p90_ms"] = median(ingP90)
	out.e2e["query_p50_ms"] = median(qryP50)
	out.e2e["query_p90_ms"] = median(qryP90)
	out.e2e["success_rate"] = 1 - float64(out.failed)/float64(out.attempted)
	out.e2e["mse"] = r.mse
	out.e2e["peak_rss_mb"] = r.peakRSS
	out.e2e["setup_s"] = median(r.setupS)
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d requests, set-ups %v s\n", n, len(all.recs), r.setupS)

	if rc.tr != nil {
		l := out.layers
		tIngest := traced.series(false)
		tQuery := traced.series(true)
		applyMS := 1000 * delta.applyS / float64(delta.applyN)
		queryMS := 0.0
		if delta.queryN > 0 {
			queryMS = 1000 * delta.queryS / float64(delta.queryN)
		}
		l["serve.apply_ms_mean"] = applyMS
		l["serve.query_ms_mean"] = queryMS
		l["serve.outside_apply_ms_mean"] = mean(tIngest) - applyMS
		l["serve.fsyncs_per_kpt"] = float64(delta.fsyncs) / (float64(delta.points) / 1000)
		l["serve.checkpoints_per_kpt"] = float64(delta.checkpoints) / (float64(delta.points) / 1000)
		l["serve.rejects"] = float64(delta.rejects)
		if q := snapAfter.queries - snapBefore.queries; q > 0 {
			l["core.snapshot_cache_hit_ratio"] = float64(snapAfter.cacheHits-snapBefore.cacheHits) / float64(q)
		}
		l["core.snapshot_warm_starts"] = float64(snapAfter.warmStarts - snapBefore.warmStarts)
		l["client.ingest_p99_ms"] = percentileIfSupported(ingest, 99)
		l["client.query_p99_ms"] = percentileIfSupported(query, 99)
		l["trace.overhead_frac"] = median(tracedMean)/median(plainMean) - 1
		if err := r.replay(l); err != nil {
			return nil, err
		}
		// Reconcile: the layers account for decode plus apply of each
		// ingest and the snapshot of each query; the rest of the
		// client's round trip is unattributed.
		attributed := float64(len(tIngest))*(l["serve.decode_us_per_batch"]/1000+applyMS) + float64(len(tQuery))*queryMS
		l["trace.unattributed_frac"] = 1 - attributed/(sum(tIngest)+sum(tQuery))
	}
	return out, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
