// Package trackedio is an analysistest fixture: self-contained stand-ins
// for the storage/iurtree read APIs, exercising the trackedio analyzer.
package trackedio

type NodeID int32

type Tracker struct{}

type Node struct{}

type Store struct{}

func (s *Store) Get(id NodeID) ([]byte, error)                     { return nil, nil }
func (s *Store) GetTracked(id NodeID, tr *Tracker) ([]byte, error) { return nil, nil }

type Tree struct{ store *Store }

func (t *Tree) ReadNode(id NodeID) (*Node, error)                     { return nil, nil }
func (t *Tree) ReadNodeTracked(id NodeID, tr *Tracker) (*Node, error) { return nil, nil }

// Snapshot is the engine's real tree type (iurtree.Snapshot): its node
// reads are classified exactly like Tree's.
type Snapshot struct{ store *Store }

func (t *Snapshot) ReadNode(id NodeID) (*Node, error)                     { return nil, nil }
func (t *Snapshot) ReadNodeTracked(id NodeID, tr *Tracker) (*Node, error) { return nil, nil }

func walkSnapshot(t *Snapshot, tr *Tracker) {
	t.ReadNode(0)            // want `untracked Snapshot\.ReadNode`
	t.ReadNodeTracked(0, tr) // tracked: clean
}

// Other types with colliding method names are not storage reads.
type Registry struct{}

func (r *Registry) Get(key string) string { return "" }

func traverse(t *Tree, tr *Tracker) {
	t.ReadNode(0)            // want `untracked Tree\.ReadNode`
	t.store.Get(0)           // want `untracked Store\.Get`
	t.ReadNodeTracked(0, tr) // tracked: clean
	t.store.GetTracked(0, tr)
}

// loadHeader is a maintenance path: the allowlist directive in the doc
// comment covers the whole function.
//
//rstknn:allow trackedio index load, not a query path
func loadHeader(t *Tree) {
	t.ReadNode(0)
	t.store.Get(1)
}

func inlineAllow(t *Tree) {
	//rstknn:allow trackedio one-off maintenance read
	t.ReadNode(0)
	t.store.Get(0) //rstknn:allow trackedio trailing-form directive
}

func notStorage(r *Registry) {
	r.Get("key") // different receiver type: clean
}
