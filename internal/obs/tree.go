package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// TreeNode is a span with its children resolved, for nested JSON and
// text rendering of a trace.
type TreeNode struct {
	SpanRecord
	Children []*TreeNode `json:"children,omitempty"`
}

// BuildTrees links parent/child spans into per-trace trees, ordered by
// the root span's start time. Spans whose parent fell out of the ring
// are promoted to roots so partial traces still render.
func BuildTrees(spans []SpanRecord) []*TreeNode {
	nodes := make(map[uint64]*TreeNode, len(spans))
	for i := range spans {
		nodes[spans[i].ID] = &TreeNode{SpanRecord: spans[i]}
	}
	var roots []*TreeNode
	for _, n := range nodes {
		if p, ok := nodes[n.Parent]; ok && n.Parent != 0 && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortKids func(n *TreeNode)
	sortKids = func(n *TreeNode) {
		sort.Slice(n.Children, func(i, j int) bool {
			if n.Children[i].StartUnixNano != n.Children[j].StartUnixNano {
				return n.Children[i].StartUnixNano < n.Children[j].StartUnixNano
			}
			return n.Children[i].ID < n.Children[j].ID
		})
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	for _, r := range roots {
		sortKids(r)
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].StartUnixNano != roots[j].StartUnixNano {
			return roots[i].StartUnixNano < roots[j].StartUnixNano
		}
		return roots[i].ID < roots[j].ID
	})
	return roots
}

// WriteTree renders spans as an indented text tree, one line per span:
//
//	serve.analyze 1.21ms graph=ab12cd34ef56
//	  admission.wait 2µs
//	  engine.answer 1.18ms tier=full
//	    engine.pass1 944µs tier=window events=2000
//
// the format printed by tsgtime -trace.
func WriteTree(w io.Writer, spans []SpanRecord) {
	var walk func(n *TreeNode, depth int)
	walk = func(n *TreeNode, depth int) {
		for i := 0; i < depth; i++ {
			io.WriteString(w, "  ")
		}
		fmt.Fprintf(w, "%s %s", n.Name, time.Duration(n.DurationNS).Round(time.Microsecond))
		if n.Graph != "" {
			fmt.Fprintf(w, " graph=%s", n.Graph)
		}
		if n.Tier != "" {
			fmt.Fprintf(w, " tier=%s", n.Tier)
		}
		// Deterministic attr order for test- and eyeball-friendliness.
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, n.Attrs[k])
		}
		io.WriteString(w, "\n")
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range BuildTrees(spans) {
		walk(r, 0)
	}
}
