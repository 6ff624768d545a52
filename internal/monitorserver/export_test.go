package monitorserver

// IngestLen reports how many messages wait in the server's ingest queue. A
// test that gates the dispatcher uses it to know that a connection's frames
// are all queued before it lets the dispatcher go.
func IngestLen(s *Server) int { return len(s.ingest) }
