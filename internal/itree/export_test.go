package itree

// CheckInvariants exposes the internal structural check to tests.
func (t *Tree) CheckInvariants() { t.checkInvariants() }
