package forest

import (
	"encoding/gob"
	"fmt"
	"io"
)

// flatNode is the serialized form of a tree node. Children are indices
// into the flat node array; -1 marks a leaf.
type flatNode struct {
	Feature   int
	Threshold float64
	Left      int
	Right     int
	Dist      []float64
}

type flatTree struct {
	Nodes   []flatNode
	Classes int
}

func (t *Tree) flatten() flatTree {
	ft := flatTree{Classes: t.classes}
	var walk func(n *node) int
	walk = func(n *node) int {
		idx := len(ft.Nodes)
		ft.Nodes = append(ft.Nodes, flatNode{Left: -1, Right: -1})
		if n.isLeaf() {
			ft.Nodes[idx].Dist = n.Dist
			return idx
		}
		ft.Nodes[idx].Feature = n.Feature
		ft.Nodes[idx].Threshold = n.Threshold
		l := walk(n.Left)
		r := walk(n.Right)
		ft.Nodes[idx].Left = l
		ft.Nodes[idx].Right = r
		return idx
	}
	walk(t.root)
	return ft
}

func (ft flatTree) unflatten() (*Tree, error) {
	if len(ft.Nodes) == 0 {
		return nil, fmt.Errorf("forest: empty tree")
	}
	nodes := make([]node, len(ft.Nodes))
	for i, fn := range ft.Nodes {
		nodes[i] = node{Feature: fn.Feature, Threshold: fn.Threshold, Dist: fn.Dist}
		if fn.Left >= 0 {
			if fn.Left >= len(nodes) || fn.Right < 0 || fn.Right >= len(nodes) {
				return nil, fmt.Errorf("forest: corrupt tree indices")
			}
			nodes[i].Left = &nodes[fn.Left]
			nodes[i].Right = &nodes[fn.Right]
		}
	}
	return &Tree{root: &nodes[0], classes: ft.Classes}, nil
}

type forestWire struct {
	Trees   []flatTree
	Classes int
	Causes  int // only used by Extensible
}

// wire returns the forest's serialized form; causes is only used by
// Extensible.
func (f *Forest) wire(causes int) forestWire {
	w := forestWire{Classes: f.classes, Causes: causes}
	for _, t := range f.trees {
		w.Trees = append(w.Trees, t.flatten())
	}
	return w
}

func (wire forestWire) toForest() (*Forest, error) {
	f := &Forest{classes: wire.Classes}
	for _, ft := range wire.Trees {
		t, err := ft.unflatten()
		if err != nil {
			return nil, err
		}
		f.trees = append(f.trees, t)
	}
	if len(f.trees) == 0 {
		return nil, fmt.Errorf("forest: no trees in stream")
	}
	return f, nil
}

// Save writes the extensible wrapper with gob.
func (e *Extensible) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(e.forest.wire(e.causes))
}

// LoadExtensible reads an extensible wrapper written by Save.
func LoadExtensible(r io.Reader) (*Extensible, error) {
	var wire forestWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("forest: load extensible: %w", err)
	}
	f, err := wire.toForest()
	if err != nil {
		return nil, err
	}
	return &Extensible{forest: f, causes: wire.Causes}, nil
}
