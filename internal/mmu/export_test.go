package mmu

// ForceWalkAhead makes every TranslateBatchPAs call that stops at a full TLB
// miss run the walk-ahead, bypassing its trigger and footprint gate (on),
// or makes none run it (off), until restore is called. Tests use it to show
// that the simulation cannot observe the walk-ahead.
func ForceWalkAhead(on bool) (restore func()) {
	prev := walkAheadMode
	walkAheadMode = walkAheadOff
	if on {
		walkAheadMode = walkAheadAlways
	}
	return func() { walkAheadMode = prev }
}
