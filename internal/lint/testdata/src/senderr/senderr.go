// Package senderr exercises the senderr analyzer: every way a transport,
// RPC, or 2PC error can silently vanish, and the handled or annotated
// forms that must stay quiet.
package senderr

import (
	"comm"
	"telemetry"
	"twopc"
	"wal"
)

func drops(t *comm.Transport, m comm.Message) {
	t.Send(m)       // want "error from Transport.Send discarded"
	_ = t.Send(m)   // want "error from Transport.Send assigned to _"
	go t.Send(m)    // want "discarded by go statement"
	defer t.Send(m) // want "discarded by defer"
}

func dropsRPC(r *comm.RPC, m comm.Message) any {
	resp, _ := r.Call(1, m) // want "error from RPC.Call assigned to _"
	return resp
}

func dropsRetry(r *comm.RPC, m comm.Message) any {
	resp, _ := r.CallRetry(1, m) // want "error from RPC.CallRetry assigned to _"
	return resp
}

func dropsRun() bool {
	ok, _ := twopc.Run(3) // want "error from twopc.Run assigned to _"
	return ok
}

func checked(t *comm.Transport, m comm.Message) error {
	if err := t.Send(m); err != nil {
		return err
	}
	return nil
}

func checkedRPC(r *comm.RPC, m comm.Message) (any, error) {
	return r.Call(1, m)
}

func allowedDrop(t *comm.Transport, m comm.Message) {
	//lint:allow senderr retransmission covers the loss
	_ = t.Send(m)
}

func dropsFrame(s *telemetry.Conn, f telemetry.Frame) {
	s.SendFrame(f)     // want "error from Conn.SendFrame discarded"
	_ = s.SendFrame(f) // want "error from Conn.SendFrame assigned to _"
}

func checkedFrame(s *telemetry.Conn, f telemetry.Frame) error {
	return s.SendFrame(f)
}

func allowedFrameDrop(s *telemetry.Conn, f telemetry.Frame) {
	//lint:allow senderr best-effort final flush on shutdown
	_ = s.SendFrame(f)
}

func dropsWAL(l *wal.SiteLog, rec wal.Record) {
	l.Append(rec)     // want "error from SiteLog.Append discarded"
	_ = l.Append(rec) // want "error from SiteLog.Append assigned to _"
	l.Sync()          // want "error from SiteLog.Sync discarded"
	go l.Sync()       // want "discarded by go statement"
	defer l.Sync()    // want "discarded by defer"
}

func checkedWAL(l *wal.SiteLog, rec wal.Record) error {
	if err := l.Append(rec); err != nil {
		return err
	}
	return l.Sync()
}

func allowedWALDrop(l *wal.SiteLog, rec wal.Record) {
	//lint:allow senderr advisory record; losing it only causes a duplicate re-forward
	_ = l.Append(rec)
}
