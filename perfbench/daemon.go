package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"streamkm"
	"streamkm/internal/loadgen"
	"streamkm/internal/obs"
	"streamkm/internal/serve"
)

// The daemon workload hosts daemonSessions windowed sessions in one
// spawned streamkmd with its default fsync and checkpoint cadence. The
// client is this one process with at most daemonConns connections.
const (
	daemonSessions = 8
	daemonConns    = 2
	batchPoints    = 256
	sessionK       = 8
	sessionChunk   = 1024
	sessionWindow  = 8
	// prefillBatches fills each session's window exactly.
	prefillBatches = sessionChunk * sessionWindow / batchPoints
	daemonSetups   = 7
)

func sessionConfig(seed uint64, i int) serve.SessionConfig {
	return serve.SessionConfig{
		ID: fmt.Sprintf("bench-%02d", i), Kind: serve.KindWindowed, Dim: 6, K: sessionK,
		ChunkPoints: sessionChunk, WindowChunks: sessionWindow,
		Seed: seed + uint64(i)*0x9e3779b97f4a7c15, MergeSolver: "minibatch",
	}
}

// windowedOptions is the clusterer a session config describes; the
// reference model is built from it.
func windowedOptions(c serve.SessionConfig) streamkm.WindowedOptions {
	return streamkm.WindowedOptions{K: c.K, ChunkPoints: c.ChunkPoints, WindowChunks: c.WindowChunks,
		Seed: c.Seed, MergeSolver: c.MergeSolver}
}

// daemonProc is one spawned streamkmd.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	waited chan struct{}
}

func startDaemon(bin, state string) (*daemonProc, error) {
	if bin == "" {
		return nil, errors.New("daemon-ingest needs --daemon (run.sh builds it)")
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-state", state)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, waited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// "streamkmd listening on 127.0.0.1:41234 (state ...)"
			if rest, ok := strings.CutPrefix(sc.Text(), "streamkmd listening on "); ok {
				addr <- strings.Fields(rest)[0]
				break
			}
		}
		close(addr)
		io.Copy(io.Discard, stdout)
		cmd.Wait()
		close(d.waited)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			<-d.waited
			return nil, errors.New("streamkmd exited before announcing its address")
		}
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("streamkmd never announced its address")
	}
	d.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: daemonConns, DisableCompression: true}}
	return d, nil
}

func (d *daemonProc) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if it does not within the drain timeout.
func (d *daemonProc) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.waited:
		if !d.cmd.ProcessState.Success() {
			return fmt.Errorf("streamkmd exited with %v", d.cmd.ProcessState)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("streamkmd ignored SIGTERM; killed")
	}
}

func (d *daemonProc) kill() {
	d.cmd.Process.Kill()
	<-d.waited
}

// do sends one request and returns the status and body.
func (d *daemonProc) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemonProc) getJSON(path string, v any) error {
	status, b, err := d.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

func (d *daemonProc) metrics() (obs.Snapshot, error) {
	var rep obs.Report
	err := d.getJSON("/metrics", &rep)
	return rep.Metrics, err
}

// snapStats sums the snapshot-index counters of every session's report.
type snapStats struct{ queries, cacheHits, warmStarts int64 }

func (d *daemonProc) snapshotStats(sessions []serve.SessionConfig) (snapStats, error) {
	var sum snapStats
	for _, c := range sessions {
		var rep obs.Report
		if err := d.getJSON("/v1/sessions/"+c.ID+"/report", &rep); err != nil {
			return sum, err
		}
		sum.queries += rep.Metrics.Counter(obs.SnapshotQueries, "snapshot")
		sum.cacheHits += rep.Metrics.Counter(obs.SnapshotCacheHits, "snapshot")
		sum.warmStarts += rep.Metrics.Counter(obs.SnapshotWarmStarts, "snapshot")
	}
	return sum, nil
}

// daemonRun is the daemon workload's state: the live daemon, its
// sessions, each session's point stream, and the ledger of which
// batches each session acknowledged.
type daemonRun struct {
	rc       *runConfig
	d        *daemonProc
	sessions []serve.SessionConfig
	streams  []*loadgen.PointStream
	prefill  [][][]byte // per session, the pre-encoded prefill bodies
	// window holds each session's prefill points: its window once set
	// up, the data the mse of its answer at that point is taken over.
	window [][][]float64
	// acked[s][b] reports whether session s acknowledged its b-th
	// traffic batch (after the prefill).
	acked   [][]bool
	setupS  []float64
	peakRSS float64
	mse     float64
}

func encodeBatch(points [][]float64) []byte {
	b, err := json.Marshal(struct {
		Points [][]float64 `json:"points"`
	}{points})
	if err != nil {
		panic(err) // finite float64 slices always marshal
	}
	return b
}

// newDaemonRun generates the prefill bodies, then sets the daemon up
// daemonSetups times, timing each set-up: spawn until /readyz answers,
// create the sessions, and ingest the prefill that fills every
// window. The last daemon stays up for the measurement.
func newDaemonRun(rc *runConfig) (*daemonRun, error) {
	corpus, err := loadgen.NewCorpus(loadgen.CorpusSpec{Seed: rc.seed})
	if err != nil {
		return nil, err
	}
	r := &daemonRun{rc: rc}
	for i := 0; i < daemonSessions; i++ {
		r.sessions = append(r.sessions, sessionConfig(rc.seed, i))
		st := corpus.Stream(i)
		var bodies [][]byte
		var window [][]float64
		for b := 0; b < prefillBatches; b++ {
			batch := st.Batch(batchPoints)
			bodies = append(bodies, encodeBatch(batch))
			window = append(window, batch...)
		}
		r.streams = append(r.streams, st)
		r.prefill = append(r.prefill, bodies)
		r.window = append(r.window, window)
		r.acked = append(r.acked, nil)
	}
	for i := 0; i < daemonSetups; i++ {
		if r.d != nil {
			if err := r.d.stop(); err != nil {
				return nil, err
			}
		}
		state, err := os.MkdirTemp(rc.work, "state-")
		if err != nil {
			return nil, err
		}
		d := rc.tr.time("perfbench.setup", func() { err = r.setUp(state) })
		if err != nil {
			if r.d != nil {
				r.d.kill()
			}
			return nil, err
		}
		r.setupS = append(r.setupS, d.Seconds())
	}
	// Quality is taken at a fixed stream position, the full window
	// after the prefill, so it is a function of the seed alone.
	for s, c := range r.sessions {
		var res serve.ClustersResult
		if err := r.d.getJSON("/v1/sessions/"+c.ID+"/clusters", &res); err != nil {
			r.d.kill()
			return nil, err
		}
		m, err := streamkm.MSEOf(r.window[s], res.Centroids)
		if err != nil {
			r.d.kill()
			return nil, err
		}
		r.mse += m / daemonSessions
	}
	return r, nil
}

func (r *daemonRun) setUp(state string) error {
	d, err := startDaemon(r.rc.daemon, state)
	if err != nil {
		return err
	}
	r.d = d
	for {
		status, _, err := d.do(http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			break
		}
		select {
		case <-d.waited:
			return errors.New("streamkmd exited before it was ready")
		case <-time.After(time.Millisecond):
		}
	}
	for _, c := range r.sessions {
		body, _ := json.Marshal(c)
		status, b, err := d.do(http.MethodPost, "/v1/sessions", body)
		if err != nil {
			return err
		}
		if status != http.StatusCreated {
			return fmt.Errorf("creating session %s: status %d: %s", c.ID, status, strings.TrimSpace(string(b)))
		}
	}
	return r.eachConn(func(conn int) error {
		for b := 0; b < prefillBatches; b++ {
			for s := conn; s < daemonSessions; s += daemonConns {
				status, msg, err := d.do(http.MethodPost, "/v1/sessions/"+r.sessions[s].ID+"/points", r.prefill[s][b])
				if err != nil {
					return err
				}
				if status != http.StatusOK {
					return fmt.Errorf("prefill %s: status %d: %s", r.sessions[s].ID, status, strings.TrimSpace(string(msg)))
				}
			}
		}
		return nil
	})
}

// eachConn runs fn once per client connection and waits for all.
func (r *daemonRun) eachConn(fn func(conn int) error) error {
	errs := make([]error, daemonConns)
	var wg sync.WaitGroup
	for c := 0; c < daemonConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// nextBodies generates and encodes each of sessions' next n batches
// (untimed), one goroutine per connection.
func (r *daemonRun) nextBodies(n int) [][][]byte {
	bodies := make([][][]byte, daemonSessions)
	r.eachConn(func(conn int) error {
		for s := conn; s < daemonSessions; s += daemonConns {
			for b := 0; b < n; b++ {
				bodies[s] = append(bodies[s], encodeBatch(r.streams[s].Batch(batchPoints)))
			}
		}
		return nil
	})
	return bodies
}

// verify is the end-of-run answer check. Every session must report
// exactly the points it acknowledged, and its /clusters answer must
// equal, in canonical JSON, that of an in-process WindowedClusterer fed
// the same acknowledged stream.
func (r *daemonRun) verify(out *outcome) error {
	corpus, err := loadgen.NewCorpus(loadgen.CorpusSpec{Seed: r.rc.seed})
	if err != nil {
		return err
	}
	want := make([][]byte, daemonSessions)
	wantPts := make([]uint64, daemonSessions)
	err = r.eachConn(func(conn int) error {
		for s := conn; s < daemonSessions; s += daemonConns {
			ref, err := streamkm.NewWindowedClusterer(6, windowedOptions(r.sessions[s]))
			if err != nil {
				return err
			}
			st := corpus.Stream(s)
			batch := make([][]float64, batchPoints)
			for b := 0; b < prefillBatches+len(r.acked[s]); b++ {
				st.Next(batch)
				if b >= prefillBatches && !r.acked[s][b-prefillBatches] {
					continue
				}
				for _, p := range batch {
					if err := ref.Push(p); err != nil {
						return err
					}
				}
			}
			res, err := ref.Snapshot()
			if err != nil {
				return err
			}
			wantPts[s] = uint64(ref.Consumed())
			want[s], err = json.Marshal(serve.ClustersResult{
				Consumed: wantPts[s], Partitions: res.Partitions, LiveChunks: ref.LiveChunks(),
				MergeMSE: res.MergeMSE, Weights: res.Weights, Centroids: res.Centroids,
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for s, c := range r.sessions {
		var info serve.SessionInfo
		if err := r.d.getJSON("/v1/sessions/"+c.ID, &info); err != nil {
			return err
		}
		out.check(info.Consumed == wantPts[s], "session %s applied %d points, acknowledged %d", c.ID, info.Consumed, wantPts[s])
		var got serve.ClustersResult
		if err := r.d.getJSON("/v1/sessions/"+c.ID+"/clusters", &got); err != nil {
			return err
		}
		out.check(got.Durable <= got.Consumed, "session %s durable %d beyond consumed %d", c.ID, got.Durable, got.Consumed)
		got.Durable = 0 // durability lag is the daemon's choice, not part of the answer
		gotJSON, err := json.Marshal(got)
		if err != nil {
			return err
		}
		out.check(bytes.Equal(gotJSON, want[s]), "session %s: /clusters differs from the in-process reference", c.ID)
	}
	return nil
}

// finish records peak RSS and stops the daemon.
func (r *daemonRun) finish() error {
	rss, err := peakRSSMB(r.d.pid())
	if err != nil {
		r.d.kill()
		return err
	}
	r.peakRSS = rss
	return r.d.stop()
}

// serveDelta is the difference of the daemon's counters between two
// /metrics scrapes.
type serveDelta struct {
	applyN, queryN       int64
	applyS, queryS       float64
	points, fsyncs       int64
	checkpoints, rejects int64
}

func diffMetrics(before, after obs.Snapshot) serveDelta {
	hist := func(s obs.Snapshot, name string) (int64, float64) {
		if h := s.Histogram(name, ""); h != nil {
			return h.Count, h.Sum
		}
		return 0, 0
	}
	rejects := func(s obs.Snapshot) int64 {
		n := int64(0)
		for _, c := range s.Counters {
			if c.Name == obs.ServeRejects {
				n += c.Value
			}
		}
		return n
	}
	var d serveDelta
	n0, s0 := hist(before, obs.ServeIngestSeconds)
	n1, s1 := hist(after, obs.ServeIngestSeconds)
	d.applyN, d.applyS = n1-n0, s1-s0
	n0, s0 = hist(before, obs.ServeQuerySeconds)
	n1, s1 = hist(after, obs.ServeQuerySeconds)
	d.queryN, d.queryS = n1-n0, s1-s0
	d.points = after.Counter(obs.ServeIngestPoints, "") - before.Counter(obs.ServeIngestPoints, "")
	d.fsyncs = after.Counter(obs.ServeWALFsyncs, "") - before.Counter(obs.ServeWALFsyncs, "")
	d.checkpoints = after.Counter(obs.ServeCheckpoints, "") - before.Counter(obs.ServeCheckpoints, "")
	d.rejects = rejects(after) - rejects(before)
	return d
}

func (d *serveDelta) add(o serveDelta) {
	d.applyN += o.applyN
	d.applyS += o.applyS
	d.queryN += o.queryN
	d.queryS += o.queryS
	d.points += o.points
	d.fsyncs += o.fsyncs
	d.checkpoints += o.checkpoints
	d.rejects += o.rejects
}
