package lint

import "testing"

func TestSendErrGolden(t *testing.T) {
	runGolden(t, NewSendErr(), "comm", "twopc", "wal", "senderr")
}
