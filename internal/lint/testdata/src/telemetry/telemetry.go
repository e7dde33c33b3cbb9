// Package telemetry is a miniature of the repository's telemetry plane,
// just enough surface for the senderr analyzer's type matching.
package telemetry

// Frame is one telemetry wire frame.
type Frame struct{ Seq uint64 }

// Conn is the wire connection; its SendFrame signature is what senderr
// watches.
type Conn struct{}

func (c *Conn) SendFrame(f Frame) error { return nil }
