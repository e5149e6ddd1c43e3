package prefix

// Waits reports how many Run calls have joined an in-flight group
// leader, so tests can act once every sibling is waiting.
func (s *Sharer) Waits() int64 { return s.groups.Stats().Waits }

// Install puts rec into the group table as a resume-only group with no
// result to reuse, so a test can stage a group without running a leader.
func (s *Sharer) Install(rec GroupRecord) {
	g := &group{decisions: rec.Decisions, truncated: true}
	for _, cp := range rec.Checkpoints {
		st := cp.State
		g.checkpoints = append(g.checkpoints, Checkpoint{Decision: cp.Decision, State: &st})
	}
	s.groups.Put(rec.Key, g)
}
