package coord

// PersistErrs reports how many writes to the Log failed and the most
// recent error.
func (s *Server) PersistErrs() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistErrs, s.persistErr
}
