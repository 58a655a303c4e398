package fleet

// FaultRules reports how many fault rules an inproc member's daemon
// holds, as its /healthz report would.
func FaultRules(m Member) int { return m.(*inprocMember).mgr.StatusReport().FaultRules }
