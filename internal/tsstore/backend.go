package tsstore

// A Backend is the persistence seam behind a Store: every observation
// the store ingests — per-path samples and per-link utilization
// windows — is appended to it in arrival order, after the store's own
// rings have taken it. internal/archive is the durable implementation;
// NewWithBackend chains it (or a test fake) behind a store so the same
// ingest stream also survives the process.
//
// Append methods must be safe for concurrent use: the monitor calls
// Observe from every session goroutine at once.
type Backend interface {
	// AppendPoint records one path sample.
	AppendPoint(path string, p Point) error
	// AppendLink records one windowed link utilization observation.
	AppendLink(link string, p LinkPoint) error
	// Close flushes and releases the backend. The Store does not call
	// Append methods after Close.
	Close() error
}
