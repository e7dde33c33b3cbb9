package lint

import "testing"

func TestObsCompleteGolden(t *testing.T) {
	runGolden(t, NewObsComplete(), "trace", "obs", "metrics", "engine")
}
