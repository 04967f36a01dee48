// Package cache implements the generic set-associative tag array used for
// the second-level caches and the attraction memories (the direct-mapped
// first-level caches are plain line arrays in package machine). State
// semantics are owned by the caller: the cache stores an opaque state
// byte per line, with zero meaning invalid, and lets the caller bias
// victim selection by state (the paper's attraction memories prefer
// evicting Shared lines over Owner/Exclusive lines).
package cache
