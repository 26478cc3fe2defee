package dse

// Fleet (TCP) transport tests: frame-level compression, the byte-identity
// and determinism guarantees over real ServeIslands workers, hostile init
// frames, and the failure-mode matrix — worker killed mid-leg, truncated
// frame, wedged (never-replying) worker, worker-reported error. Every
// recoverable failure must land in a deterministic local takeover with an
// archive byte-identical to the in-process run; worker-reported errors
// must abort cleanly with no takeover. All of these run under -race in CI.

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcmap/internal/model"
)

// TestFrameCompression pins the wire format's compression contract: a
// large compressible payload crosses the wire flate-compressed (header
// bit 31 set, fewer bytes than the raw encoding), round-trips exactly,
// and both directions feed the process-wide transport counters. Small
// control frames must stay uncompressed.
func TestFrameCompression(t *testing.T) {
	in0, out0 := TransportCounters()

	big := &wireMsg{Kind: kindInit, Init: &wireInit{
		SpecJSON: bytes.Repeat([]byte("abcdefgh"), 4<<10), // 32 KiB, highly compressible
	}}
	var buf bytes.Buffer
	if err := writeFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	hdr := binary.BigEndian.Uint32(buf.Bytes()[:4])
	if hdr&frameCompressed == 0 {
		t.Error("32 KiB compressible frame did not set the compression bit")
	}
	if buf.Len() >= len(big.Init.SpecJSON) {
		t.Errorf("compressed frame is %d bytes for a %d-byte payload", buf.Len(), len(big.Init.SpecJSON))
	}
	frameLen := buf.Len()
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != kindInit || !bytes.Equal(got.Init.SpecJSON, big.Init.SpecJSON) {
		t.Error("compressed frame did not round-trip")
	}

	var small bytes.Buffer
	if err := writeFrame(&small, &wireMsg{Kind: kindAck}); err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(small.Bytes()[:4])&frameCompressed != 0 {
		t.Error("ack control frame was compressed")
	}
	if _, err := readFrame(&small); err != nil {
		t.Fatal(err)
	}

	in1, out1 := TransportCounters()
	if out1-out0 < int64(frameLen) || in1-in0 < int64(frameLen) {
		t.Errorf("transport counters moved by in=%d out=%d, want >= %d each", in1-in0, out1-out0, frameLen)
	}
}

// TestFrameSizeBound: a header declaring a frame past maxFrame must be
// rejected before any allocation, not trusted.
func TestFrameSizeBound(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(maxFrame+1))
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame header was accepted")
	}
}

// startFleetWorker runs a real ServeIslands worker on a loopback
// listener, exactly what `mcmapd -worker` wraps, and returns its address.
func startFleetWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go ServeIslands(l)
	return l.Addr().String()
}

// shrinkTCPRetries collapses the redial schedule so failure tests take
// milliseconds instead of the production second-scale backoff.
func shrinkTCPRetries(t *testing.T) {
	t.Helper()
	attempts, backoff := tcpRedialAttempts, tcpRedialBackoff
	tcpRedialAttempts, tcpRedialBackoff = 1, time.Millisecond
	t.Cleanup(func() { tcpRedialAttempts, tcpRedialBackoff = attempts, backoff })
}

// cutProxy sits between the coordinator and a live worker and simulates
// the worker dying mid-run: it forwards frames both ways until it has
// passed killAfter coordinator→worker frames, then severs the connection
// AND stops listening, so the redial fails and the endpoint must take
// the island over locally. The cut lands at a deterministic point in the
// request sequence; whether the in-flight reply squeaks through is the
// one race the takeover guarantee must absorb.
func cutProxy(t *testing.T, backend string, killAfter int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		client, err := l.Accept()
		if err != nil {
			return
		}
		worker, err := net.Dial("tcp", backend)
		if err != nil {
			client.Close()
			return
		}
		go io.Copy(client, worker) // replies and pings flow freely
		var hdr [4]byte
		for fwd := 0; fwd < killAfter; fwd++ {
			if _, err := io.ReadFull(client, hdr[:]); err != nil {
				break
			}
			n := binary.BigEndian.Uint32(hdr[:]) &^ frameCompressed
			if _, err := worker.Write(hdr[:]); err != nil {
				break
			}
			if _, err := io.CopyN(worker, client, int64(n)); err != nil {
				break
			}
		}
		l.Close()
		client.Close()
		worker.Close()
	}()
	return l.Addr().String()
}

// TestFleetMatchesInProcess is the fleet half of the mode-equivalence
// guarantee: islands distributed over real TCP workers — more islands
// than workers, so connections are shared round-robin — reproduce the
// in-process archives byte-for-byte, keep doing so when a worker is
// killed mid-leg and its island is taken over locally, and at Workers=1
// reproduce every counter as well.
func TestFleetMatchesInProcess(t *testing.T) {
	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 6, Seed: 11,
		Islands: 3, MigrationInterval: 2, Workers: 3}
	inProc, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := archiveSignature(inProc)

	t.Run("healthy", func(t *testing.T) {
		fopts := opts
		fopts.IslandHosts = []string{startFleetWorker(t), startFleetWorker(t)}
		fleet, err := Optimize(p, fopts)
		if err != nil {
			t.Fatal(err)
		}
		if got := archiveSignature(fleet); got != want {
			t.Errorf("fleet archives diverge from in-process:\n in-proc %s\n   fleet %s", want, got)
		}
		if fleet.Stats.IslandTakeovers != 0 {
			t.Errorf("healthy fleet run reports %d takeovers", fleet.Stats.IslandTakeovers)
		}
		if len(fleet.Stats.IslandStats) != len(inProc.Stats.IslandStats) {
			t.Fatalf("got %d IslandStats, want %d", len(fleet.Stats.IslandStats), len(inProc.Stats.IslandStats))
		}
		// Every island's fitness cache is private in both venues, so the
		// per-island summaries — fitness counters included — must agree.
		for i, got := range fleet.Stats.IslandStats {
			if ref := inProc.Stats.IslandStats[i]; got != ref {
				t.Errorf("island %d stats diverge: in-proc %+v, fleet %+v", i, ref, got)
			}
		}
	})

	// Each island's fitness and structural caches are private in both
	// venues, and at Workers=1 each island evaluates sequentially, so the
	// whole History and the structural totals must agree, unmasked.
	t.Run("workers=1", func(t *testing.T) {
		sopts := opts
		sopts.Workers = 1
		ref, err := Optimize(p, sopts)
		if err != nil {
			t.Fatal(err)
		}
		sopts.IslandHosts = []string{startFleetWorker(t), startFleetWorker(t)}
		fleet, err := Optimize(p, sopts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fleet.History, ref.History) {
			for i := range ref.History {
				if i < len(fleet.History) && fleet.History[i] != ref.History[i] {
					t.Errorf("history[%d] diverges: in-proc %+v, fleet %+v", i, ref.History[i], fleet.History[i])
				}
			}
			t.Fatalf("fleet history (%d rows) differs from in-process (%d rows)", len(fleet.History), len(ref.History))
		}
		got := [3]int{fleet.Stats.StructHits, fleet.Stats.StructMisses, fleet.Stats.WarmStartJobs}
		want := [3]int{ref.Stats.StructHits, ref.Stats.StructMisses, ref.Stats.WarmStartJobs}
		if got != want {
			t.Errorf("structural hits/misses/warm passes: in-proc %v, fleet %v", want, got)
		}
	})

	t.Run("worker killed mid-leg", func(t *testing.T) {
		shrinkTCPRetries(t)
		ref, err := Optimize(p, Options{PopSize: 10, Generations: 6, Seed: 11,
			Islands: 2, MigrationInterval: 2, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		fopts := Options{PopSize: 10, Generations: 6, Seed: 11,
			Islands: 2, MigrationInterval: 2, Workers: 2}
		// Slot 0's worker dies after five forwarded requests — inside the
		// second leg, with init/advance/migrants already in the replay log.
		fopts.IslandHosts = []string{cutProxy(t, startFleetWorker(t), 5), startFleetWorker(t)}
		fleet, err := Optimize(p, fopts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := archiveSignature(fleet), archiveSignature(ref); got != want {
			t.Errorf("post-kill archives diverge from in-process:\n in-proc %s\n   fleet %s", want, got)
		}
		if fleet.Stats.IslandTakeovers != 1 {
			t.Errorf("got %d takeovers, want exactly 1 (the killed slot)", fleet.Stats.IslandTakeovers)
		}
	})
}

// TestDistributedDeterminism: two fleet runs of the same seed are
// identical, including the per-island cache counters — each worker
// connection owns private caches and a sequential trajectory, so nothing
// is timing-dependent.
func TestDistributedDeterminism(t *testing.T) {
	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 4, Seed: 7,
		Islands: 2, MigrationInterval: 2, Workers: 2,
		IslandHosts: []string{startFleetWorker(t), startFleetWorker(t)}}
	a, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := archiveSignature(a), archiveSignature(b); sa != sb {
		t.Errorf("fleet run is not seed-deterministic:\n run1 %s\n run2 %s", sa, sb)
	}
	if len(a.Stats.IslandStats) != 2 || len(b.Stats.IslandStats) != 2 {
		t.Fatalf("got %d and %d IslandStats, want 2 each", len(a.Stats.IslandStats), len(b.Stats.IslandStats))
	}
	for i := range a.Stats.IslandStats {
		if a.Stats.IslandStats[i] != b.Stats.IslandStats[i] {
			t.Errorf("island %d stats differ across identical runs:\n run1 %+v\n run2 %+v",
				i, a.Stats.IslandStats[i], b.Stats.IslandStats[i])
		}
	}
}

// TestDistributedRejectsCustomSelector: selectors cross the wire by
// name, so only the built-ins work distributed and anything else must
// fail fast instead of silently running a different GA.
func TestDistributedRejectsCustomSelector(t *testing.T) {
	p := tinyProblem(t)
	_, err := Optimize(p, Options{PopSize: 8, Generations: 2, Seed: 1,
		Islands: 2, IslandHosts: []string{startFleetWorker(t)}, Selector: customSelector{}})
	if err == nil {
		t.Fatal("distributed run with a custom selector succeeded, want error")
	}
}

// customSelector is a non-built-in Selector for the rejection test.
type customSelector struct{ Elitist }

func (customSelector) Name() string { return "custom" }

// TestFleetRejectsHostileInit: a worker port accepts init frames from
// any client, so the worker must revalidate and default the wire options
// exactly as the coordinator's Optimize would. Chromosome caps the
// encoding cannot express must come back as a kindError reply, and
// sizing Optimize would have defaulted must be defaulted — never a panic
// that takes down every island the worker serves. The same listener
// must then go on serving a healthy run.
func TestFleetRejectsHostileInit(t *testing.T) {
	p := tinyProblem(t)
	var spec bytes.Buffer
	if err := (&model.Spec{Architecture: p.Arch, Apps: p.Apps}).WriteJSON(&spec); err != nil {
		t.Fatal(err)
	}
	addr := startFleetWorker(t)
	for name, tc := range map[string]struct {
		tamper func(o *wireOptions)
		want   string
	}{
		"MaxK=0":        {func(o *wireOptions) { o.MaxK = 0 }, kindError},
		"MaxReplicas=0": {func(o *wireOptions) { o.MaxReplicas = 0 }, kindError},
		"PopSize<0":     {func(o *wireOptions) { o.PopSize = -5 }, kindAck},
		"ArchiveSize=0": {func(o *wireOptions) { o.ArchiveSize = 0 }, kindAck},
	} {
		opts := wireOptions{PopSize: 10, ArchiveSize: 10, Generations: 4, MutationRate: 0.08,
			Workers: 1, Selector: SPEA2{}.Name(), MaxK: p.MaxK, MaxReplicas: p.MaxReplicas}
		tc.tamper(&opts)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := exchange(conn, &wireMsg{Kind: kindInit, Init: &wireInit{
			SpecJSON: spec.Bytes(), Opts: opts, Island: 0, Seed: 1,
		}})
		conn.Close()
		if err != nil {
			t.Fatalf("%s: init exchange: %v", name, err)
		}
		if reply.Kind != tc.want {
			t.Errorf("%s: worker replied %q (%s), want %q", name, reply.Kind, reply.Error, tc.want)
		}
	}
	checkHealthyFleet(t, p, addr, "hostile init frames")
}

// exchange sends one request frame and returns the worker's reply,
// skipping heartbeat pings.
func exchange(conn net.Conn, msg *wireMsg) (*wireMsg, error) {
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeFrame(conn, msg); err != nil {
		return nil, err
	}
	reply, err := readFrame(conn)
	for err == nil && reply.Kind == kindPing {
		reply, err = readFrame(conn)
	}
	return reply, err
}

// checkHealthyFleet runs a two-island fleet over the worker at addr and
// requires it to match the in-process run with no takeovers: whatever
// the worker was fed before, it must still serve a healthy run.
func checkHealthyFleet(t *testing.T, p *Problem, addr, after string) {
	t.Helper()
	opts := Options{PopSize: 10, Generations: 4, Seed: 7,
		Islands: 2, MigrationInterval: 2, Workers: 2}
	ref, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.IslandHosts = []string{addr}
	fleet, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Stats.IslandTakeovers != 0 {
		t.Errorf("run after %s took over %d islands, want 0", after, fleet.Stats.IslandTakeovers)
	}
	if got, want := archiveSignature(fleet), archiveSignature(ref); got != want {
		t.Errorf("run after %s diverges from in-process:\n in-proc %s\n   fleet %s", after, want, got)
	}
}

// TestFleetRejectsHostileMigrants: after a healthy init, a migrants
// frame carrying an individual without a genome or with a chromosome of
// the wrong shape
// must come back as a kindError reply — never a panic in selection or
// in the next leg — and the listener must go on serving a healthy run.
func TestFleetRejectsHostileMigrants(t *testing.T) {
	p := tinyProblem(t)
	var spec bytes.Buffer
	if err := (&model.Spec{Architecture: p.Arch, Apps: p.Apps}).WriteJSON(&spec); err != nil {
		t.Fatal(err)
	}
	migrant := func(tamper func(g *Genome)) []*Individual {
		g := p.RandomGenome(rand.New(rand.NewSource(1)))
		tamper(g)
		return []*Individual{{Genome: g}}
	}
	// Gob cannot carry a nil slice element, so that case can only reach
	// a worker in-process (a local takeover); check it directly.
	if err := p.checkMigrants([]*Individual{nil}); err == nil {
		t.Error("nil individual: accepted, want an error")
	}
	addr := startFleetWorker(t)
	for name, in := range map[string][]*Individual{
		"nil genome":       {{Power: 1}},
		"short Alloc":      migrant(func(g *Genome) { g.Alloc = g.Alloc[:1] }),
		"long Keep":        migrant(func(g *Genome) { g.Keep = append(g.Keep, true) }),
		"no Genes":         migrant(func(g *Genome) { g.Genes = nil }),
		"empty ReplicaMap": migrant(func(g *Genome) { g.Genes[0].ReplicaMap = nil }),
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := exchange(conn, &wireMsg{Kind: kindInit, Init: &wireInit{
			SpecJSON: spec.Bytes(), Island: 0, Seed: 1,
			Opts: wireOptions{PopSize: 10, ArchiveSize: 10, Generations: 4, MutationRate: 0.08,
				Workers: 1, Selector: SPEA2{}.Name(), MaxK: p.MaxK, MaxReplicas: p.MaxReplicas},
		}})
		if err != nil || reply.Kind != kindAck {
			conn.Close()
			t.Fatalf("%s: healthy init: reply %+v, err %v", name, reply, err)
		}
		reply, err = exchange(conn, &wireMsg{Kind: kindMigrants, In: in})
		conn.Close()
		if err != nil {
			t.Fatalf("%s: migrants exchange: %v", name, err)
		}
		if reply.Kind != kindError {
			t.Errorf("%s: worker replied %q, want %q", name, reply.Kind, kindError)
		}
	}
	checkHealthyFleet(t, p, addr, "hostile migrants frames")
}

// TestWorkerPanicBecomesError: a handler panic — whatever frame
// provoked it — is turned into an error reply for its own connection
// instead of crashing the worker process.
func TestWorkerPanicBecomesError(t *testing.T) {
	w := &islandWorker{isl: &island{}} // no problem: any migrant check panics
	reply, err := handleRecovered(w, &wireMsg{Kind: kindMigrants, In: []*Individual{{Genome: &Genome{}}}})
	if err == nil || reply != nil {
		t.Fatalf("panicking handler returned reply %+v, err %v; want an error", reply, err)
	}
	if !strings.Contains(err.Error(), "panicked on migrants") {
		t.Errorf("error %q does not name the panicking request", err)
	}
}

// TestFleetUnreachableWorker: a host nothing listens on is the lazy-dial
// failure path — the very first exchange runs the recovery ladder and
// the slot is served locally from generation zero.
func TestFleetUnreachableWorker(t *testing.T) {
	shrinkTCPRetries(t)
	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 4, Seed: 7,
		Islands: 2, MigrationInterval: 2, Workers: 2}
	ref, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Grab a port that is guaranteed dead by closing its listener.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	fopts := opts
	fopts.IslandHosts = []string{dead, startFleetWorker(t)}
	fleet, err := Optimize(p, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := archiveSignature(fleet), archiveSignature(ref); got != want {
		t.Errorf("takeover archives diverge from in-process:\n in-proc %s\n   fleet %s", want, got)
	}
	if fleet.Stats.IslandTakeovers != 1 {
		t.Errorf("got %d takeovers, want 1", fleet.Stats.IslandTakeovers)
	}
}

// TestFleetTruncatedFrame: a worker that dies mid-frame leaves the
// coordinator a short read, which must classify as a transport failure —
// recovery ladder, local takeover, byte-identical archive — never a
// decode of garbage.
func TestFleetTruncatedFrame(t *testing.T) {
	shrinkTCPRetries(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if _, err := readFrame(conn); err != nil { // the init request
			conn.Close()
			return
		}
		// A header promising 64 payload bytes, then only 8 and a dead
		// socket: io.ReadFull must surface ErrUnexpectedEOF.
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 64)
		conn.Write(hdr[:])
		conn.Write(make([]byte, 8))
		conn.Close()
		l.Close() // no second chance: force the local takeover
	}()

	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 4, Seed: 7,
		Islands: 2, MigrationInterval: 2, Workers: 2}
	ref, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	fopts := opts
	fopts.IslandHosts = []string{l.Addr().String(), startFleetWorker(t)}
	fleet, err := Optimize(p, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := archiveSignature(fleet), archiveSignature(ref); got != want {
		t.Errorf("truncated-frame recovery diverges from in-process:\n in-proc %s\n   fleet %s", want, got)
	}
	if fleet.Stats.IslandTakeovers != 1 {
		t.Errorf("got %d takeovers, want 1", fleet.Stats.IslandTakeovers)
	}
}

// TestFleetHeartbeatDeadline: a worker that accepts frames but never
// replies — wedged, not dead — must be cut off by the heartbeat deadline
// (it emits no pings) and its island taken over locally. The healthy
// worker on the other slot keeps its legs alive under the same shrunken
// deadline purely through pings.
func TestFleetHeartbeatDeadline(t *testing.T) {
	shrinkTCPRetries(t)
	ping, beat := tcpPingInterval, tcpHeartbeatTimeout
	tcpPingInterval, tcpHeartbeatTimeout = 20*time.Millisecond, 250*time.Millisecond
	t.Cleanup(func() { tcpPingInterval, tcpHeartbeatTimeout = ping, beat })

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { // the wedge: swallow every frame, answer nothing
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(io.Discard, c)
			}(conn)
		}
	}()

	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 4, Seed: 7,
		Islands: 2, MigrationInterval: 2, Workers: 2}
	ref, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	fopts := opts
	fopts.IslandHosts = []string{l.Addr().String(), startFleetWorker(t)}
	fleet, err := Optimize(p, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := archiveSignature(fleet), archiveSignature(ref); got != want {
		t.Errorf("heartbeat recovery diverges from in-process:\n in-proc %s\n   fleet %s", want, got)
	}
	if fleet.Stats.IslandTakeovers != 1 {
		t.Errorf("got %d takeovers, want 1", fleet.Stats.IslandTakeovers)
	}
}

// TestFleetWorkerErrorAborts: an error the worker itself reports travels
// back as a kindError frame over a perfectly healthy stream. That is a
// deterministic property of the run — replaying it anywhere re-derives
// it — so the coordinator must abort with the worker's message, not
// burn a takeover on it.
func TestFleetWorkerErrorAborts(t *testing.T) {
	shrinkTCPRetries(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := readFrame(c); err != nil {
					return
				}
				writeFrame(c, &wireMsg{Kind: kindError, Error: "worker exploded deterministically"})
			}(conn)
		}
	}()

	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 4, Seed: 7,
		Islands: 2, MigrationInterval: 2, Workers: 2}
	opts.IslandHosts = []string{l.Addr().String(), startFleetWorker(t)}
	_, err = Optimize(p, opts)
	if err == nil {
		t.Fatal("run against an error-reporting worker succeeded, want a clean abort")
	}
	if !strings.Contains(err.Error(), "worker exploded deterministically") {
		t.Errorf("abort error %q does not carry the worker's message", err)
	}
}
