package netsim

// Up reports whether the host is running.
func (h *Host) Up() bool { return h.up }
