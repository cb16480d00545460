package shoggoth

import "context"

// Students is the one StudentCache of the package's tests, internal and
// external: every config, Fleet and Cluster a test builds takes its
// pretrained students from it, so the test binary pretrains each profile
// once.
var Students StudentCache

// RunFrameStep runs cfgs through the frame stepper (framestep_test.go), the
// oracle the external tests hold Cluster.Run to. It skips Run's validation:
// callers pass configs Run has accepted.
func (c *Cluster) RunFrameStep(ctx context.Context, cfgs []Config) (*ClusterResults, error) {
	cache := c.Cache
	if cache == nil {
		cache = &c.own
	}
	return c.runFrameStep(ctx, cfgs, cache)
}
