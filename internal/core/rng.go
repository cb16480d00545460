package core

// RNG stream layout. Every random draw in a deployment comes from a PCG
// stream seeded by a (seed, stream) pair, so subsystems never share a
// generator and event reordering in the fleet engine can never change what
// randomness a subsystem sees — a device advanced in a different epoch
// order still draws the identical values.
//
// Streams keyed by the *run* seed (cfg.Seed, distinct per device in a
// fleet):
//
//	(cfg.Seed, RNGStreamRun)        System.rng — training-batch subsampling
//	                                and AMS quantization noise; consumed in
//	                                strict virtual-time order.
//	(cfg.Seed, RNGStreamTeacher)    the cloud teacher's confidence/jitter
//	                                draws (labeling order is serialized by
//	                                the cloud service, so consumption order
//	                                is deterministic).
//	(cfg.Seed, RNGStreamEdgeTrain)  the edge trainer's shuffles and replay
//	                                sampling.
//	(cfg.Seed, RNGStreamAMSTrain)   the AMS cloud trainer's shuffles and
//	                                replay sampling.
//
// Streams keyed by the *profile* seed (shared by every strategy on a
// profile, so all see the identical scene):
//
//	(profile.Seed, cfg.Seed)        the video stream's population dynamics
//	                                and feature rendering (video.NewStream).
//	                                The sparse fleet stream draws nothing:
//	                                its frame metadata is a pure function of
//	                                (profile, frame time).
//
// Strategies needing more streams must claim a new constant here; ad-hoc
// stream ids would silently collide.
const (
	// RNGStreamRun is the System's shared run stream (historic id 0x51057E).
	RNGStreamRun uint64 = 0x51057E
	// RNGStreamTeacher seeds the cloud teacher.
	RNGStreamTeacher uint64 = 2
	// RNGStreamEdgeTrain seeds the edge adaptive trainer.
	RNGStreamEdgeTrain uint64 = 4
	// RNGStreamAMSTrain seeds the AMS cloud-side trainer.
	RNGStreamAMSTrain uint64 = 5
	// RNGStreamFidelitySample seeds the Cluster's sampled-fidelity device
	// subset draw (keyed by Config.SampledSeed, not the device seed: one
	// draw per fleet, before any System exists).
	RNGStreamFidelitySample uint64 = 6
	// RNGStreamBootstrap seeds the sampled-fidelity bootstrap resampling
	// that produces the ClusterResults error bound.
	RNGStreamBootstrap uint64 = 7
)
