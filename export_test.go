package shoggoth

import "context"

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
