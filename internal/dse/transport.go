package dse

// This file is the connection-independent half of the distributed-island
// protocol: framing (length-prefixed self-contained gob, flate-compressed
// above a size threshold), the worker-side protocol state machine shared
// by the TCP fleet worker and the coordinator-local takeover, and the
// coordinator's per-island endpoint with its replay log and failure
// recovery. The connection itself is tcp.go's; the orchestration — legs,
// migration, merge — lives in distributed.go.
//
// Failure model. Every state-bearing request the worker has acknowledged
// (init, advance, migrants) is appended to the endpoint's replay log.
// Island evolution is a pure function of that request sequence — the
// init frame pins the problem, options and seed; advance and migrants
// frames pin every RNG draw and archive merge — so a lost worker is
// recoverable without ever consulting the dead process: either a fresh
// connection replays the log against a new remote worker (TCP
// reconnect), or the coordinator replays it against an in-process
// islandWorker and serves the remaining legs locally (takeover). Both
// paths land in the exact state the lost worker held, so the final
// archive is byte-identical to an undisturbed run no matter which worker
// died or when (pinned by the transport failure tests). Errors the
// worker itself reports (kindError frames, wrong-kind replies on an
// intact stream) are NOT recovered: the stream is healthy and the run is
// wrong, so retrying anywhere would re-derive the same failure — they
// abort the job cleanly instead.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// maxFrame bounds a frame's declared (and decompressed) length; anything
// larger means a corrupt or misframed stream, not a legitimate payload.
const maxFrame = 1 << 28

// compressThreshold is the encoded-frame size above which writeFrame
// attempts flate compression. Control frames (init acks, advance
// requests, pings) stay well under it and skip the compressor entirely;
// migrant/elite sets and done payloads — many near-identical gob-encoded
// genomes — typically shrink severalfold, which is what makes them cheap
// to ship across machines.
const compressThreshold = 4 << 10

// frameCompressed is the header bit marking a compressed payload. The
// length field keeps the low 31 bits, so the flag never collides with a
// legitimate size (maxFrame < 1<<31).
const frameCompressed = uint32(1) << 31

// transportBytesIn/Out count frame bytes (header included) read and
// written by every connection in the process, coordinator and worker side
// alike. Purely observability — surfaced on mcmapd's /stats and expvar —
// so plain process-global atomics are fine.
var transportBytesIn, transportBytesOut atomic.Int64

// TransportCounters reports the cumulative distributed-island frame
// bytes read and written by this process across all connections
// (coordinator and worker roles).
func TransportCounters() (in, out int64) {
	return transportBytesIn.Load(), transportBytesOut.Load()
}

// writeFrame encodes msg as one length-prefixed gob frame, flate-
// compressing payloads above compressThreshold (bit 31 of the length
// header marks compression). Each frame carries its own encoder state,
// so frames are self-contained and a reader can never desynchronize
// across message boundaries.
func writeFrame(w io.Writer, msg *wireMsg) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
		return fmt.Errorf("dse: encoding %s frame: %w", msg.Kind, err)
	}
	payload, flag := buf.Bytes(), uint32(0)
	if len(payload) > compressThreshold {
		var cbuf bytes.Buffer
		fw, err := flate.NewWriter(&cbuf, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := fw.Write(payload); err != nil {
			return err
		}
		if err := fw.Close(); err != nil {
			return err
		}
		if cbuf.Len() < len(payload) {
			payload, flag = cbuf.Bytes(), frameCompressed
		}
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("dse: %s frame of %d bytes exceeds the %d-byte bound", msg.Kind, len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload))|flag)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	transportBytesOut.Add(int64(4 + len(payload)))
	return nil
}

// readFrame reads one length-prefixed gob frame, transparently
// decompressing payloads whose header carries the compression bit.
func readFrame(r io.Reader) (*wireMsg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	raw := binary.BigEndian.Uint32(hdr[:])
	n := raw &^ frameCompressed
	if n > maxFrame {
		return nil, fmt.Errorf("dse: island frame of %d bytes exceeds the %d-byte bound (corrupt stream?)", n, maxFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	transportBytesIn.Add(int64(4 + n))
	var payload io.Reader = bytes.NewReader(buf)
	if raw&frameCompressed != 0 {
		fr := flate.NewReader(payload)
		defer fr.Close()
		// Bound the decompressed size like the raw size: a frame that
		// inflates past maxFrame is corrupt or hostile, not legitimate.
		payload = io.LimitReader(fr, maxFrame+1)
	}
	var msg wireMsg
	if err := gob.NewDecoder(payload).Decode(&msg); err != nil {
		return nil, fmt.Errorf("dse: decoding island frame: %w", err)
	}
	return &msg, nil
}

// workerError marks a failure the worker itself reported (a kindError
// frame) or a protocol violation on an intact stream (wrong reply kind).
// Unlike transport failures these are deterministic properties of the
// run — replaying them locally or on a fresh connection would re-derive
// the same failure — so the endpoint never tries to recover them.
type workerError struct{ err error }

func (e *workerError) Error() string { return e.err.Error() }
func (e *workerError) Unwrap() error { return e.err }

func isWorkerError(err error) bool {
	var we *workerError
	return errors.As(err, &we)
}

// islandWorker is the worker-side protocol state machine: one island
// driven through init / advance / elites / migrants / finish requests.
// It is shared verbatim by the TCP fleet server (ServeIslands) and the
// coordinator's local takeover, so both execution venues perform the
// identical operation sequence.
type islandWorker struct {
	isl *island
}

// handle applies one request and returns its reply. A returned error is
// a worker-side failure the caller must surface as a kindError frame (or
// abort with, when running in-process).
func (w *islandWorker) handle(msg *wireMsg) (*wireMsg, error) {
	if msg.Kind != kindInit && w.isl == nil {
		return nil, fmt.Errorf("dse: island worker got %s before init", msg.Kind)
	}
	switch msg.Kind {
	case kindInit:
		isl, err := buildWorkerIsland(msg.Init)
		if err == nil {
			err = isl.init()
		}
		if err != nil {
			return nil, err
		}
		w.isl = isl
		return &wireMsg{Kind: kindAck}, nil
	case kindAdvance:
		if err := w.isl.advance(msg.From, msg.To); err != nil {
			return nil, err
		}
		return &wireMsg{Kind: kindAck}, nil
	case kindElites:
		return &wireMsg{Kind: kindElites, Elites: w.isl.elites(msg.N)}, nil
	case kindMigrants:
		if err := w.isl.p.checkMigrants(msg.In); err != nil {
			return nil, err
		}
		// The receiver half of migrateRing, verbatim: counters, selection
		// merge, history annotation.
		isl := w.isl
		isl.migrantsOut += msg.OutCount
		isl.migrantsIn += len(msg.In)
		union := append(append([]*Individual(nil), isl.archive...), msg.In...)
		isl.archive = isl.selectArchive(union)
		if len(isl.history) > 0 {
			isl.history[len(isl.history)-1].MigrantsIn += len(msg.In)
		}
		return &wireMsg{Kind: kindAck}, nil
	case kindFinish:
		return &wireMsg{Kind: kindDone, Done: &wireDone{
			Archive: w.isl.archive,
			History: w.isl.history,
			Stats:   w.isl.stats,
			Island:  w.isl.islandStat(),
		}}, nil
	default:
		return nil, fmt.Errorf("dse: island worker got unknown message kind %q", msg.Kind)
	}
}

// checkMigrants rejects a migrant set no coordinator sends: a nil
// entry, or an individual whose chromosome does not have the problem's
// shape. Any client that reaches a worker port can send a migrants
// frame, and such an individual would panic in selection or in the next
// leg's crossover, mutation or decode.
func (p *Problem) checkMigrants(in []*Individual) error {
	for i, ind := range in {
		if ind == nil || ind.Genome == nil {
			return fmt.Errorf("dse: migrant %d carries no genome", i)
		}
		g := ind.Genome
		if len(g.Alloc) != len(p.Arch.Procs) || len(g.Keep) != len(p.droppable) || len(g.Genes) != len(p.taskIDs) {
			return fmt.Errorf("dse: migrant %d has chromosome sections %d/%d/%d, want %d/%d/%d", i,
				len(g.Alloc), len(g.Keep), len(g.Genes), len(p.Arch.Procs), len(p.droppable), len(p.taskIDs))
		}
		for j := range g.Genes {
			if len(g.Genes[j].ReplicaMap) != p.MaxReplicas {
				return fmt.Errorf("dse: migrant %d gene %d has %d replica slots, want %d", i, j,
					len(g.Genes[j].ReplicaMap), p.MaxReplicas)
			}
		}
	}
	return nil
}

// close releases the worker's private pool (buildWorkerIsland always
// creates one; the wire carries no shared pools). Call only after the
// last handle has returned — fan-outs have joined by then.
func (w *islandWorker) close() {
	if w.isl != nil && w.isl.ev.pool != nil {
		w.isl.ev.pool.Close()
	}
}

// islandEndpoint is the coordinator's handle on one island slot: the
// connection carrying its frames, the replay log that makes worker loss
// recoverable, and — after a takeover — the in-process worker serving
// the slot for the rest of the run.
type islandEndpoint struct {
	slot int
	tr   *tcpTransport
	// log accumulates the state-bearing requests (init, advance,
	// migrants) the worker has acknowledged, in order. It is the slot's
	// recovery script: replayed against a fresh worker it reconstructs
	// the exact island state, because evolution is deterministic in the
	// request sequence. Elites and finish requests are read-only and are
	// not logged. The log is small — a handful of control frames per leg
	// plus the migrant payloads.
	log []*wireMsg
	// local is non-nil once the slot has been taken over; requests are
	// then applied in-process and the connection is dead.
	local *islandWorker
	// pending is the request sent by the broadcast phase whose reply has
	// not been collected yet, with the reply kind it expects.
	pending     *wireMsg
	pendingKind string
	// takeovers points at the run-level counter shared by all endpoints.
	takeovers *int
}

// send starts one request/reply exchange. Transport write errors are
// deliberately swallowed: the matching collect observes the broken
// stream on its read and owns all recovery, which keeps the broadcast's
// send-all-then-collect overlap intact.
func (ep *islandEndpoint) send(req *wireMsg, wantKind string) {
	ep.pending, ep.pendingKind = req, wantKind
	if ep.local != nil {
		return
	}
	_ = ep.tr.Send(req)
}

// collect finishes the exchange send started: it reads the reply (or
// applies the request in-process after a takeover), logging state-
// bearing requests once acknowledged. On a transport failure it runs the
// recovery ladder — reconnect + replay, then deterministic local
// takeover — and only reports an error for worker-side failures, which
// no venue can outrun.
func (ep *islandEndpoint) collect() (*wireMsg, error) {
	req, want := ep.pending, ep.pendingKind
	ep.pending, ep.pendingKind = nil, ""
	if req == nil {
		return nil, fmt.Errorf("dse: island %d: collect without a pending request", ep.slot)
	}
	if ep.local != nil {
		reply, err := ep.local.handle(req)
		if err != nil {
			return nil, err
		}
		ep.logIf(req)
		return reply, nil
	}
	reply, err := ep.tr.Recv(want)
	if err == nil {
		ep.logIf(req)
		return reply, nil
	}
	if isWorkerError(err) {
		return nil, err
	}
	return ep.recover(req, want)
}

// recover handles a transport failure on the pending exchange: first a
// reconnect replaying the log against a fresh remote worker, then the
// local takeover. Worker-side errors surfacing during either replay
// abort the run — a deterministic failure re-derives everywhere.
func (ep *islandEndpoint) recover(req *wireMsg, want string) (*wireMsg, error) {
	reply, err := ep.replayRemote(req, want)
	if err == nil {
		ep.logIf(req)
		return reply, nil
	}
	if isWorkerError(err) {
		return nil, err
	}
	ep.tr.Kill()
	w := &islandWorker{}
	for _, m := range ep.log {
		if _, err := w.handle(m); err != nil {
			w.close()
			return nil, fmt.Errorf("dse: island %d local takeover replay: %w", ep.slot, err)
		}
	}
	reply, err = w.handle(req)
	if err != nil {
		w.close()
		return nil, err
	}
	ep.local = w
	*ep.takeovers++
	ep.logIf(req)
	return reply, nil
}

// replayRemote re-establishes the connection and brings a fresh remote
// worker to the pending request's state by replaying the log, then
// re-issues the request itself. Any transport error falls back to the
// caller's takeover path.
func (ep *islandEndpoint) replayRemote(req *wireMsg, want string) (*wireMsg, error) {
	if err := ep.tr.reconnect(); err != nil {
		return nil, err
	}
	for _, m := range ep.log {
		if err := ep.tr.Send(m); err != nil {
			return nil, err
		}
		if _, err := ep.tr.Recv(kindAck); err != nil {
			return nil, err
		}
	}
	if err := ep.tr.Send(req); err != nil {
		return nil, err
	}
	return ep.tr.Recv(want)
}

// logIf appends state-bearing requests to the replay log.
func (ep *islandEndpoint) logIf(req *wireMsg) {
	switch req.Kind {
	case kindInit, kindAdvance, kindMigrants:
		ep.log = append(ep.log, req)
	}
}

// close releases the endpoint after a successful run: clean connection
// shutdown for remote slots, pool release for taken-over ones.
func (ep *islandEndpoint) close() error {
	if ep.local != nil {
		ep.local.close()
		return nil
	}
	return ep.tr.Close()
}

// kill tears the endpoint down on error paths.
func (ep *islandEndpoint) kill() {
	if ep.local != nil {
		ep.local.close()
		return
	}
	ep.tr.Kill()
}
