package prefix

// Waits reports how many Run calls have joined an in-flight group
// leader, so tests can act once every sibling is waiting.
func (s *Sharer) Waits() int64 { return s.groups.Stats().Waits }
