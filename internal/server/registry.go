// Package server implements lightd, the long-lived enumeration
// service: a stdlib net/http daemon exposing the light library's
// count, enumerate, and batch APIs over a registry of loaded graph
// snapshots, governed by one process-wide resource governor and fronted
// by a result cache. See DESIGN.md §17.
package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"light"
)

// GraphInfo describes one registered graph snapshot.
type GraphInfo struct {
	// Name is the registry handle queries refer to.
	Name string `json:"name"`
	// Fingerprint is the graph's content hash (hex), the key snapshots
	// are deduplicated and cache entries are invalidated by.
	Fingerprint string `json:"fingerprint"`
	// Path is the file the graph was loaded from ("" for graphs
	// registered in-process).
	Path string `json:"path,omitempty"`
	// Vertices, Edges, and MaxDegree summarize the graph.
	Vertices  int   `json:"vertices"`
	Edges     int64 `json:"edges"`
	MaxDegree int   `json:"max_degree"`
	// MemoryBytes is the CSR footprint.
	MemoryBytes int64 `json:"memory_bytes"`
	// LoadedAt is when this name was registered.
	LoadedAt time.Time `json:"loaded_at"`
}

// regEntry pairs a graph snapshot with its registry metadata. Multiple
// names may share one entry's *light.Graph (load-once deduplication by
// fingerprint) while carrying their own metadata.
type regEntry struct {
	g    *light.Graph
	info GraphInfo
}

// Registry holds the server's loaded graph snapshots: load-once CSR
// graphs keyed by content fingerprint, addressed by caller-chosen
// names. Loading a file whose content is already registered reuses the
// in-memory snapshot instead of duplicating it. All methods are safe
// for concurrent use.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*regEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*regEntry)}
}

// Load reads the graph at path (a .csr snapshot, or an edge-list file,
// optionally gzipped) and registers it under name. If a graph with the
// same content fingerprint is already registered, the existing
// in-memory snapshot is reused (load-once); if name is already taken by
// a different graph, Load fails. Returns the registered info.
func (r *Registry) Load(name, path string) (GraphInfo, error) {
	if err := validName(name); err != nil {
		return GraphInfo{}, err
	}
	var (
		g   *light.Graph
		err error
	)
	if strings.HasSuffix(path, ".csr") || strings.HasSuffix(path, ".csr.gz") {
		g, err = light.LoadCSR(path)
	} else {
		g, err = light.LoadEdgeList(path)
	}
	if err != nil {
		return GraphInfo{}, fmt.Errorf("server: loading %s: %w", path, err)
	}
	return r.register(name, path, g)
}

// Add registers an in-process graph under name (no file involved) —
// the path tests, smoke checks, and embedding callers use.
func (r *Registry) Add(name string, g *light.Graph) (GraphInfo, error) {
	if err := validName(name); err != nil {
		return GraphInfo{}, err
	}
	return r.register(name, "", g)
}

// validName accepts exactly the documented safe charset: letters,
// digits, dots, underscores, and dashes. Names appear verbatim in URL
// paths (DELETE /graphs/{name}, POST /graphs/{name}/edges) and cache
// keys, so URL metacharacters ('?', '#', '%', ...) — which an
// everything-but-slashes-and-spaces rule used to let through — must be
// rejected, not just the characters that break routing outright.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("server: invalid graph name %q (must be non-empty)", name)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("server: invalid graph name %q (allowed characters: A-Z a-z 0-9 . _ -)", name)
		}
	}
	return nil
}

func (r *Registry) register(name, path string, g *light.Graph) (GraphInfo, error) {
	fp := g.Fingerprint()
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok {
		if prev.g.Fingerprint() == fp {
			// Idempotent re-load of the same content: keep the original
			// snapshot and LoadedAt, but track the file's current
			// location — the caller may have re-loaded precisely because
			// the file moved.
			if path != "" {
				prev.info.Path = path
			}
			return prev.info, nil
		}
		return GraphInfo{}, fmt.Errorf("server: graph name %q already registered with different content", name)
	}
	// Load-once: reuse an existing snapshot with the same fingerprint,
	// so N names for one graph cost one CSR in memory (and share one
	// plan-stats cache).
	for _, e := range r.byName {
		if e.g.Fingerprint() == fp {
			g = e.g
			break
		}
	}
	e := &regEntry{
		g: g,
		info: GraphInfo{
			Name:        name,
			Fingerprint: fmt.Sprintf("%016x", fp),
			Path:        path,
			Vertices:    g.NumVertices(),
			Edges:       g.NumEdges(),
			MaxDegree:   g.MaxDegree(),
			MemoryBytes: g.MemoryBytes(),
			LoadedAt:    time.Now().UTC(),
		},
	}
	r.byName[name] = e
	return e.info, nil
}

// Get returns the graph registered under name.
func (r *Registry) Get(name string) (*light.Graph, GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byName[name]
	if !ok {
		return nil, GraphInfo{}, false
	}
	return e.g, e.info, true
}

// Unload removes name from the registry, returning the snapshot's
// fingerprint and whether this was the last name referencing that
// content. Load-once deduplication means several names can share one
// snapshot (and its cached results); the cache must be invalidated only
// when the last reference goes away, or unloading an alias would evict
// entries the surviving names still serve from.
func (r *Registry) Unload(name string) (fingerprint uint64, lastRef, existed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byName[name]
	if !ok {
		return 0, false, false
	}
	delete(r.byName, name)
	fp := e.g.Fingerprint()
	for _, other := range r.byName {
		if other.g.Fingerprint() == fp {
			return fp, false, true
		}
	}
	return fp, true, true
}

// RefreshInfo re-derives the registry metadata of every name sharing
// the given graph after a mutation (ApplyEdges/Compact change the
// fingerprint, sizes, and degree bound of all aliases at once),
// returning the updated infos. The graph is matched by identity:
// aliases share the one mutable *light.Graph.
func (r *Registry) RefreshInfo(g *light.Graph) []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []GraphInfo
	for _, e := range r.byName {
		if e.g != g {
			continue
		}
		e.info.Fingerprint = fmt.Sprintf("%016x", g.Fingerprint())
		e.info.Vertices = g.NumVertices()
		e.info.Edges = g.NumEdges()
		e.info.MaxDegree = g.MaxDegree()
		e.info.MemoryBytes = g.MemoryBytes()
		out = append(out, e.info)
	}
	return out
}

// List returns the registered graphs, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, len(r.byName))
	for _, e := range r.byName {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
