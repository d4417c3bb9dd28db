package interp

// MaxCallDepth exposes the call depth limit to the external tests.
const MaxCallDepth = maxCallDepth
