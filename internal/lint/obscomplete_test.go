package lint

import "testing"

func TestObsCompleteGolden(t *testing.T) {
	runGolden(t, NewObsComplete(), "trace", "obs", "watch", "metrics", "engine")
}
