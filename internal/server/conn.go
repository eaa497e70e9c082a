package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// request is one admitted frame awaiting execution, with its decoded
// payload. Request objects cycle between the connection's free list and its
// ring, so the steady state decodes into slices that have already grown to
// the working batch size — no per-frame allocation.
type request struct {
	op    byte
	seq   uint32
	pkts  []engine.Packet // decide
	ops   []TableOp       // table
	arena []int64         // backing values for ops
	dsl   []byte          // swap

	// Trace context for a traced Decide (protocol v2): the client's trace
	// ID plus the server-side phase stamps accumulated as the request moves
	// reader -> ring -> worker. traceID 0 means untraced and the stamps are
	// never taken, keeping the common path identical to v1.
	traceID uint64
	recvNs  int64 // frame decoded off the socket
	admitNs int64 // admitted to the ring
}

// conn is one served connection: a read loop that decodes and admits frames
// into a bounded ring, and a work loop that executes them against the
// backend and writes replies. The ring is the backpressure boundary — when
// it is full the read loop answers with a Reject frame immediately instead
// of queueing, so a slow backend surfaces to clients as EAGAIN, never as
// unbounded server memory.
type conn struct {
	srv *Server
	nc  net.Conn

	ring chan *request // admitted, not yet executed
	free chan *request // recycled request objects; capacity == ring size

	wmu  sync.Mutex // serializes frame writes (worker replies, reader rejects)
	bw   *bufio.Writer
	rout []byte // reader-side frame scratch (rejects, errors), under wmu
	wout []byte // worker-side frame scratch (replies), under wmu

	once sync.Once
	done chan struct{} // closed on shutdown; unblocks the work loop
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv:  s,
		nc:   nc,
		ring: make(chan *request, s.ring),
		free: make(chan *request, s.ring),
		bw:   bufio.NewWriter(nc),
		done: make(chan struct{}),
	}
	for i := 0; i < s.ring; i++ {
		c.free <- &request{}
	}
	return c
}

// shutdown tears the connection down from either side (read error, worker
// exit, server Close). Idempotent.
func (c *conn) shutdown() {
	c.once.Do(func() {
		close(c.done)
		c.nc.Close()
		c.srv.removeConn(c)
	})
}

// readLoop decodes frames off the socket and admits them into the ring.
func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer c.shutdown()
	fr := NewFrameReader(c.nc, MaxPayload)
	for {
		op, seq, body, err := fr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.srv.m.protoErrs.Inc()
				c.writeReader(AppendErr(c.rout[:0], 0, err.Error()))
			}
			return
		}
		c.srv.m.framesTotal.Inc()
		// Claim a request slot without blocking: no slot means the ring is
		// full and the request is rejected right here, while the worker
		// keeps draining — the EAGAIN contract.
		var req *request
		select {
		case req = <-c.free:
		default:
			c.srv.m.rejects.Inc()
			c.srv.flight.Event(telemetry.EventReject, 0, nowNs(), int64(seq))
			c.writeReader(AppendReject(c.rout[:0], seq, RejectBusy))
			continue
		}
		req.op, req.seq = op, seq
		ok, fatal := c.decodeInto(req, body)
		if !ok {
			c.free <- req
			if fatal {
				c.srv.m.protoErrs.Inc()
				c.srv.flight.Event(telemetry.EventProtoErr, 0, nowNs(), int64(seq))
				return
			}
			continue
		}
		if req.traceID != 0 {
			req.admitNs = nowNs()
		}
		c.srv.m.inflight.Add(1)
		select {
		case c.ring <- req:
		case <-c.done:
			c.srv.m.inflight.Add(-1)
			return
		}
	}
}

// decodeInto decodes body into req according to its opcode. It returns
// ok=false when the frame was consumed without admitting a request; fatal
// additionally ends the connection (malformed frame or unknown opcode, after
// an Err frame has been sent).
func (c *conn) decodeInto(req *request, body []byte) (ok, fatal bool) {
	var err error
	req.traceID = 0
	switch req.op {
	case OpDecide:
		req.pkts, req.traceID, err = DecodeDecide(body, c.srv.maxBatch, req.pkts)
		if req.traceID != 0 {
			req.recvNs = nowNs()
			c.srv.m.tracedReqs.Inc()
		}
	case OpTable:
		dims := len(c.srv.be.Schema().Attrs)
		req.ops, req.arena, err = DecodeTable(body, dims, c.srv.maxBatch, req.ops, req.arena)
	case OpSwap:
		req.dsl, err = DecodeSwap(body, req.dsl)
	case OpHello:
		_, _, err = DecodeHello(body)
	case OpPing:
		// empty body; tolerate any
	default:
		c.writeReader(AppendErr(c.rout[:0], req.seq, "unknown opcode"))
		return false, true
	}
	if err != nil {
		c.writeReader(AppendErr(c.rout[:0], req.seq, err.Error()))
		return false, true
	}
	return true, false
}

// workLoop executes admitted requests in order and writes replies.
func (c *conn) workLoop() {
	defer c.srv.wg.Done()
	defer c.shutdown()
	for {
		select {
		case req := <-c.ring:
			c.serveAndReply(req)
		case <-c.done:
			// Drain requests admitted before shutdown so every admitted
			// frame is answered or the connection is visibly dead — never
			// silently dropped while the socket stays open.
			for {
				select {
				case req := <-c.ring:
					c.serveAndReply(req)
				default:
					return
				}
			}
		}
	}
}

// serveAndReply executes one request and answers it. The reply is encoded
// into the worker's own scratch, so the request slot goes back to the free
// list before the reply is written: a client may send its next frame the
// moment it reads a reply, and that frame must find the slot free — a
// reply means the slot is free.
func (c *conn) serveAndReply(req *request) {
	traceID := req.traceID
	var reply []byte
	var doneNs int64
	if traceID != 0 {
		reply, doneNs = c.serveTracedDecide(req)
	} else {
		reply = c.serve(req)
	}
	c.srv.m.inflight.Add(-1)
	c.free <- req
	c.writeWorker(reply)
	if traceID != 0 {
		c.srv.flight.Record(telemetry.SpanEncode, traceID, doneNs, nowNs(), 0)
	}
}

// serve executes one untraced request against the backend and returns its
// encoded reply.
func (c *conn) serve(req *request) []byte {
	switch req.op {
	case OpDecide:
		start := time.Now()
		c.srv.be.DecideBatch(req.pkts)
		c.srv.m.decisions.Add(uint64(len(req.pkts)))
		c.srv.m.batchHist.Observe(uint64(len(req.pkts)))
		c.srv.m.latencyHist.Observe(uint64(time.Since(start).Microseconds()))
		return AppendDecided(c.wout[:0], req.seq, req.pkts)
	case OpTable:
		buf := c.wout[:0]
		// Statuses are written into the frame as the ops execute: reserve
		// the header and count, then append one status byte per op.
		buf = appendHeader(buf, OpTableAck, req.seq, 2+len(req.ops))
		buf = append(buf, byte(len(req.ops)), byte(len(req.ops)>>8))
		for i := range req.ops {
			buf = append(buf, c.applyTableOp(&req.ops[i]))
		}
		c.srv.m.tableOps.Add(uint64(len(req.ops)))
		return buf
	case OpSwap:
		status, msg := byte(StatusOK), ""
		pol, err := policy.Parse(string(req.dsl))
		if err == nil {
			err = c.srv.be.SwapPolicy(pol)
		}
		if err != nil {
			status, msg = StatusInvalid, err.Error()
		} else {
			c.srv.m.swaps.Inc()
		}
		return AppendSwapAck(c.wout[:0], req.seq, status, msg)
	case OpHello:
		return AppendHelloAck(c.wout[:0], req.seq, c.srv.helloInfo())
	case OpPing:
		return AppendPong(c.wout[:0], req.seq, c.srv.pongInfo())
	}
	return nil
}

// serveTracedDecide is the traced variant of the Decide arm: same backend
// call and metrics, plus phase stamps echoed to the client in the reply's
// DecideTrace trailer and recorded into the server's flight ring. It
// returns the encoded reply and the decide-done stamp, which opens the
// encode span serveAndReply records once the reply is written. The extra
// cost over the plain path is three clock reads, one histogram exemplar
// store and three lock-free ring records — all allocation-free.
func (c *conn) serveTracedDecide(req *request) (reply []byte, doneNs int64) {
	startNs := nowNs()
	c.srv.be.DecideBatch(req.pkts)
	doneNs = nowNs()
	c.srv.m.decisions.Add(uint64(len(req.pkts)))
	c.srv.m.batchHist.Observe(uint64(len(req.pkts)))
	c.srv.m.latencyHist.ObserveExemplar(uint64((doneNs-startNs)/1000), req.traceID)
	tr := DecideTrace{
		ID:      req.traceID,
		RecvNs:  req.recvNs,
		AdmitNs: req.admitNs,
		StartNs: startNs,
		DoneNs:  doneNs,
	}
	flight := c.srv.flight
	flight.Record(telemetry.SpanRingWait, req.traceID, req.admitNs, startNs, int64(len(req.pkts)))
	flight.Record(telemetry.SpanDecide, req.traceID, startNs, doneNs, int64(len(req.pkts)))
	return AppendDecidedTrace(c.wout[:0], req.seq, req.pkts, tr), doneNs
}

// nowNs is the server's phase-stamp clock.
func nowNs() int64 { return time.Now().UnixNano() }

// applyTableOp runs one SMBM op and maps its result to a wire status.
// Replica divergence maps to StatusOK: the write landed on the
// authoritative table; the diverged shard is quarantined and resynced by
// the engine's health machinery, invisible to the protocol contract.
func (c *conn) applyTableOp(op *TableOp) byte {
	var err error
	id := int(op.ID)
	switch op.Kind {
	case TableAdd:
		err = c.srv.be.Add(id, op.Vals)
	case TableUpdate:
		err = c.srv.be.Update(id, op.Vals)
	case TableUpsert:
		err = c.srv.be.Upsert(id, op.Vals)
	case TableDelete:
		err = c.srv.be.Delete(id)
	}
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, smbm.ErrReplicaDivergence):
		return StatusOK
	case errors.Is(err, engine.ErrClosed):
		return StatusClosed
	default:
		return StatusInvalid
	}
}

// writeWorker writes one reply frame from the work loop. The scratch that
// produced buf is retained for reuse when it is the worker's own.
func (c *conn) writeWorker(buf []byte) {
	c.wmu.Lock()
	c.wout = buf[:0]
	c.writeLocked(buf)
	c.wmu.Unlock()
}

// writeReader writes one frame from the read loop (rejects, errors).
func (c *conn) writeReader(buf []byte) {
	c.wmu.Lock()
	c.rout = buf[:0]
	c.writeLocked(buf)
	c.wmu.Unlock()
}

func (c *conn) writeLocked(buf []byte) {
	if _, err := c.bw.Write(buf); err == nil {
		_ = c.bw.Flush()
	}
}
