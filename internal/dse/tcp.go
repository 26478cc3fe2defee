package dse

// tcpTransport carries one island's frame conversation over a
// persistent TCP connection to a fleet worker (mcmapd -worker), and
// ServeIslands is the worker-side accept loop. Liveness on both sides is
// deadline-based: while a worker computes a leg it emits kindPing frames
// on an interval, and the coordinator's reads run under a heartbeat
// deadline several pings wide — so a busy worker is distinguishable from
// a dead or wedged one without ever bounding how long a leg may take.
// A failed connection is re-dialed with exponential backoff; the
// endpoint then replays its log on the fresh connection (each accepted
// connection is a blank worker), and when even that fails it takes the
// island over locally. None of the wall-clock reads below can influence
// results — they only decide how quickly a failure is detected; the
// deterministic-takeover guarantee covers every detection path.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCP liveness/retry tuning. Package variables rather than constants so
// the failure-mode tests can shrink them; real runs never change them.
var (
	tcpDialTimeout      = 5 * time.Second
	tcpWriteTimeout     = 5 * time.Second
	tcpPingInterval     = 500 * time.Millisecond
	tcpHeartbeatTimeout = 5 * time.Second
	tcpRedialAttempts   = 4
	tcpRedialBackoff    = 100 * time.Millisecond
)

// afterTimeout computes the absolute deadline for a liveness bound.
func afterTimeout(d time.Duration) time.Time {
	//lint:allow determinism transport liveness deadlines detect failures, they never influence results
	return time.Now().Add(d)
}

type tcpTransport struct {
	addr string
	conn net.Conn
}

// Send dials lazily on first use, so a worker that is unreachable from
// the start flows through the same recovery ladder (redial with backoff,
// then local takeover) as one lost mid-run.
func (t *tcpTransport) Send(msg *wireMsg) error {
	if t.conn == nil {
		conn, err := net.DialTimeout("tcp", t.addr, tcpDialTimeout)
		if err != nil {
			return err
		}
		t.conn = conn
	}
	if err := t.conn.SetWriteDeadline(afterTimeout(tcpWriteTimeout)); err != nil {
		return err
	}
	return writeFrame(t.conn, msg)
}

// Recv reads the next non-ping reply under the heartbeat deadline and
// enforces its kind, classifying failures: transport errors (broken
// connection, deadline, truncated frame) are returned as-is and are
// recoverable by the endpoint, while a kindError frame or a wrong-kind
// reply on the intact stream comes back as *workerError and aborts the
// run. Each received frame — pings included — proves the worker alive
// and renews the deadline.
func (t *tcpTransport) Recv(wantKind string) (*wireMsg, error) {
	if t.conn == nil {
		return nil, fmt.Errorf("dse: island worker at %s is not connected", t.addr)
	}
	for {
		if err := t.conn.SetReadDeadline(afterTimeout(tcpHeartbeatTimeout)); err != nil {
			return nil, err
		}
		msg, err := readFrame(t.conn)
		if err != nil {
			return nil, err
		}
		switch msg.Kind {
		case kindPing:
			continue
		case kindError:
			return nil, &workerError{errors.New(msg.Error)}
		case wantKind:
			return msg, nil
		}
		return nil, &workerError{fmt.Errorf("dse: island worker replied %q, want %q", msg.Kind, wantKind)}
	}
}

// Close ends a healthy conversation; the worker's read loop sees EOF and
// discards the connection's island state.
func (t *tcpTransport) Close() error {
	if t.conn == nil {
		return nil
	}
	return t.conn.Close()
}

func (t *tcpTransport) Kill() {
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
	}
}

// reconnect drops the broken connection and re-dials with exponential
// backoff. A fresh connection lands on a blank worker; the endpoint owns
// replaying the island's log into it.
func (t *tcpTransport) reconnect() error {
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
	}
	backoff := tcpRedialBackoff
	var lastErr error
	for i := 0; i < tcpRedialAttempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		conn, err := net.DialTimeout("tcp", t.addr, tcpDialTimeout)
		if err == nil {
			t.conn = conn
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("dse: re-dialing island worker at %s: %w", t.addr, lastErr)
}

// ServeIslands serves distributed-island legs on l: every accepted
// connection hosts one blank island worker speaking the frame protocol
// until the coordinator closes it (or it breaks). This is the fleet
// worker's entire event loop — mcmapd -worker is a thin wrapper around
// it — and one listener serves any number of concurrent islands, each on
// its own connection. It returns nil when l is closed.
func ServeIslands(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		//lint:allow gospawn one protocol server per fleet connection; exits when the connection closes
		go serveIslandConn(conn)
	}
}

// handleRecovered runs one request, turning a handler panic into an
// error so a malformed frame fails its own connection with a kindError
// reply instead of taking down every island the worker serves.
func handleRecovered(w *islandWorker, msg *wireMsg) (reply *wireMsg, err error) {
	defer func() {
		if r := recover(); r != nil {
			reply, err = nil, fmt.Errorf("dse: island worker panicked on %s: %v", msg.Kind, r)
		}
	}()
	return w.handle(msg)
}

// serveIslandConn is the per-connection worker loop: read a request,
// emit heartbeat pings while handling it, write the reply. Worker-side
// failures are echoed as kindError frames before the connection closes,
// so the coordinator can distinguish "the run is wrong" (abort) from
// "the worker is gone" (recover).
func serveIslandConn(conn net.Conn) {
	defer conn.Close()
	w := &islandWorker{}
	defer w.close()
	var wmu sync.Mutex
	write := func(msg *wireMsg) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := conn.SetWriteDeadline(afterTimeout(tcpWriteTimeout)); err != nil {
			return err
		}
		return writeFrame(conn, msg)
	}
	for {
		//lint:allow ctxdeadline the worker legitimately idles between legs waiting for the coordinator's next request (DESIGN.md §10.2); a dead coordinator closes the connection, which fails this read
		msg, err := readFrame(conn)
		if err != nil {
			return // EOF (clean shutdown) or a broken coordinator
		}
		stop := make(chan struct{})
		var pings sync.WaitGroup
		pings.Add(1)
		//lint:allow gospawn heartbeat emitter scoped to one request's handling; joined before the reply
		go func() {
			defer pings.Done()
			tick := time.NewTicker(tcpPingInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if write(&wireMsg{Kind: kindPing}) != nil {
						return
					}
				}
			}
		}()
		reply, herr := handleRecovered(w, msg)
		close(stop)
		pings.Wait()
		if herr != nil {
			write(&wireMsg{Kind: kindError, Error: herr.Error()})
			return
		}
		if write(reply) != nil {
			return
		}
	}
}
