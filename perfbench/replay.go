package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"

	"streamkm"
	"streamkm/internal/serve"
)

// replayBatches is how many recorded batches each replay times.
const replayBatches = 2 * prefillBatches

// replay times, in this process and with the daemon stopped, the calls
// one ingest makes inside the daemon, on the run's own request bodies:
// the JSON decode of the exact body, serve.Server.Ingest without HTTP,
// File.Sync on the state filesystem, and the WindowedClusterer's Push,
// Snapshot and Checkpoint. Session 0's prefill fills the window first;
// sessions 1 and 2's prefill bodies are the timed batches.
func (r *daemonRun) replay(l map[string]float64) error {
	tr := r.rc.tr
	var fill, timed [][][]float64
	for s, bodies := range r.prefill[:3] {
		for _, body := range bodies {
			var req struct {
				Points [][]float64 `json:"points"`
			}
			var err error
			tr.time("serve.decodeBody (replay)", func() {
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				err = dec.Decode(&req)
			})
			if err != nil {
				return err
			}
			if s == 0 {
				fill = append(fill, req.Points)
				continue
			}
			timed = append(timed, req.Points)
		}
	}
	l["serve.decode_us_per_batch"] = 1e6 * median(tr.seconds("serve.decodeBody (replay)"))

	if err := r.replayServer(fill, timed, l); err != nil {
		return err
	}
	if err := r.replayFsync(l); err != nil {
		return err
	}

	win, err := streamkm.NewWindowedClusterer(6, windowedOptions(r.sessions[0]))
	if err != nil {
		return err
	}
	push := func(batch [][]float64) (err error) {
		for _, p := range batch {
			if err = win.Push(p); err != nil {
				return err
			}
		}
		return nil
	}
	for _, b := range fill {
		if err := push(b); err != nil {
			return err
		}
	}
	var ckBytes []float64
	for i, b := range timed {
		tr.time("streamkm.WindowedClusterer.Push (replay)", func() { err = push(b) })
		if err != nil {
			return err
		}
		tr.time("streamkm.WindowedClusterer.Snapshot (replay)", func() { _, err = win.Snapshot() })
		if err != nil {
			return err
		}
		if i%4 == 3 {
			var buf bytes.Buffer
			tr.time("streamkm.WindowedClusterer.Checkpoint (replay)", func() { err = win.Checkpoint(&buf) })
			if err != nil {
				return err
			}
			ckBytes = append(ckBytes, float64(buf.Len()))
		}
	}
	// A push or snapshot is cheap until a chunk fills and is reduced,
	// so their per-batch cost is the mean, not the median.
	l["streamkm.push_us_per_batch"] = 1e6 * mean(tr.seconds("streamkm.WindowedClusterer.Push (replay)"))
	l["streamkm.snapshot_us"] = 1e6 * mean(tr.seconds("streamkm.WindowedClusterer.Snapshot (replay)"))
	l["streamkm.checkpoint_us"] = 1e6 * median(tr.seconds("streamkm.WindowedClusterer.Checkpoint (replay)"))
	l["streamkm.checkpoint_bytes"] = median(ckBytes)
	return nil
}

// replayServer times serve.Server.Ingest of the timed batches on a
// fresh in-process server whose session the fill batches filled.
func (r *daemonRun) replayServer(fill, timed [][][]float64, l map[string]float64) error {
	srv, err := serve.New(serve.Config{Root: filepath.Join(r.rc.work, "replay-serve")})
	if err != nil {
		return err
	}
	defer srv.Drain(context.Background())
	cfg := r.sessions[0]
	if _, err := srv.CreateSession(cfg); err != nil {
		return err
	}
	ctx := context.Background()
	for _, b := range fill {
		if _, err := srv.Ingest(ctx, cfg.ID, b); err != nil {
			return err
		}
	}
	for _, b := range timed {
		r.rc.tr.time("serve.Server.Ingest (replay)", func() { _, err = srv.Ingest(ctx, cfg.ID, b) })
		if err != nil {
			return err
		}
	}
	l["serve.ingest_inproc_ms"] = 1e3 * mean(r.rc.tr.seconds("serve.Server.Ingest (replay)"))
	return nil
}

// replayFsync times File.Sync after appending one fsync interval's
// worth of WAL records (64 points of 6-d at 60 bytes each), on the
// filesystem that held the daemon's state.
func (r *daemonRun) replayFsync(l map[string]float64) error {
	f, err := os.Create(filepath.Join(r.rc.work, "fsync-probe"))
	if err != nil {
		return err
	}
	defer f.Close()
	rec := make([]byte, 64*60)
	for i := 0; i < 4*replayBatches; i++ {
		if _, err = f.Write(rec); err != nil {
			return err
		}
		r.rc.tr.time("os.File.Sync (replay)", func() { err = f.Sync() })
		if err != nil {
			return err
		}
	}
	l["disk.fsync_us"] = 1e6 * median(r.rc.tr.seconds("os.File.Sync (replay)"))
	return f.Close()
}
