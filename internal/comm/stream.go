package comm

import (
	"encoding/gob"
	"io"
)

// Message stream framing: the gob wire format TCPTransport speaks, one
// self-delimiting gob-encoded Message after another on a byte stream.
// Exported so code outside the package (the benchmark's wire-codec
// probe) encodes and decodes exactly what TCPTransport puts on a socket.
// Gob streams are stateful (type descriptors are sent once, on first
// use), so a MsgWriter/MsgReader pair must live exactly as long as its
// connection.

// MsgWriter encodes Messages onto one byte stream and counts the exact
// bytes each message put on the wire. Not safe for concurrent use; the
// owner serializes writes per connection (as tcpConn.mu does).
type MsgWriter struct {
	enc *gob.Encoder
	cw  *countWriter
}

// NewMsgWriter returns a writer framing messages onto w.
func NewMsgWriter(w io.Writer) *MsgWriter {
	cw := &countWriter{w: w}
	return &MsgWriter{enc: gob.NewEncoder(cw), cw: cw}
}

// WriteMsg encodes one message and returns its exact wire size in bytes.
// Payload types must have been registered with RegisterPayload.
func (w *MsgWriter) WriteMsg(msg Message) (int, error) {
	before := w.cw.n
	err := w.enc.Encode(msg)
	return int(w.cw.n - before), err
}

// MsgReader decodes the stream a MsgWriter produced. Not safe for
// concurrent use.
type MsgReader struct {
	dec *gob.Decoder
}

// NewMsgReader returns a reader deframing messages from r.
func NewMsgReader(r io.Reader) *MsgReader {
	return &MsgReader{dec: gob.NewDecoder(r)}
}

// ReadMsg decodes the next message; io.EOF marks a cleanly closed
// stream.
func (r *MsgReader) ReadMsg() (Message, error) {
	var msg Message
	err := r.dec.Decode(&msg)
	return msg, err
}
