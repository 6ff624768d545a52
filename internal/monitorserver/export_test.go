package monitorserver

import "testing"

// IngestLen reports how many messages wait in the server's ingest queue. A
// test that gates the dispatcher uses it to know that a connection's frames
// are all queued before it lets the dispatcher go.
func IngestLen(s *Server) int { return len(s.ingest) }

// SetJobHook makes every job run hook, with its object's name, on the worker
// before its Append, until t ends. Set it before Serve: the worker
// goroutines read it unlocked. A test holds a job out with it.
func SetJobHook(t *testing.T, hook func(object string)) {
	jobHook = hook
	t.Cleanup(func() { jobHook = nil })
}
