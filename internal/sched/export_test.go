package sched

// SetHelpHook sets the function an idle worker calls after each piece of
// work it helped with, and returns the one it replaces. Tests outside the
// package use it to see that helping happened.
func SetHelpHook(f func()) func() {
	old := helpHook
	helpHook = f
	return old
}
