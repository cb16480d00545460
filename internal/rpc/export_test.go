package rpc

// SeedTeachersAsSimulator makes s seed every device's teacher on one PCG
// stream, keyed by the server seed, as a simulator run seeds its teacher on
// (Config.Seed, core.RNGStreamTeacher). A live run can then be held to a
// simulator run of that seed byte for byte.
func SeedTeachersAsSimulator(s *Server, stream uint64) {
	s.stream = func(string) uint64 { return stream }
}
