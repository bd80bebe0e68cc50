package colstore

// Process-wide IO counters, booked by every Reader.count alongside the
// reader's own. They back the metrics-registry exposition
// (codecdb_pages_*_total and friends) without the registry needing a
// handle on each transient Reader; the extra cost is one atomic add per
// page event, which is noise next to the fetch itself.
var globalIO ioCounters

// GlobalStats returns the process-wide IO counters accumulated across
// every Reader since process start (never reset).
func GlobalStats() IOStats { return globalIO.snapshot() }
