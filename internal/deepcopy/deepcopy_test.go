package deepcopy

import (
	"strings"
	"sync"
	"testing"
)

type node struct {
	id    int
	next  *node
	peer  *node
	label string
}

type shape interface{ area() int }

type rect struct{ w, h int }

func (r rect) area() int { return r.w * r.h }

type square struct{ side *int }

func (s *square) area() int { return *s.side * *s.side }

type pair struct{ a, b int }

type graph struct {
	head   *node
	nodes  []node
	first  *node // into nodes
	field  *int  // into pairs' second element's b
	pairs  []pair
	buf    []byte
	window []byte // a sub-slice of buf
	index  map[int]*node
	alias  map[int]*node // the same map as index
	byPtr  map[*node]int
	shapes []shape
	arr    [3]*node
	empty  *struct{}
	noFunc func()
	store  counter
}

// counter copies itself: its Fork bumps forks, so a test can tell Fork
// ran instead of a field-by-field copy.
type counter struct {
	forks int
	data  *int
}

func (c *counter) Fork() counter { return counter{forks: c.forks + 1, data: c.data} }

func newGraph() *graph {
	g := &graph{}
	g.nodes = make([]node, 4, 8)
	for i := range g.nodes {
		g.nodes[i].id = i
		g.nodes[i].label = "n"
	}
	for i := range g.nodes {
		g.nodes[i].next = &g.nodes[(i+1)%len(g.nodes)] // a cycle through the slice
	}
	g.head = &node{id: 99, next: &g.nodes[2]}
	g.head.peer = g.head
	g.first = &g.nodes[1]
	g.pairs = []pair{{1, 2}, {3, 4}}
	g.field = &g.pairs[1].b
	g.buf = []byte("hello world")
	g.window = g.buf[6:8]
	g.index = map[int]*node{0: &g.nodes[0], 99: g.head}
	g.alias = g.index
	g.byPtr = map[*node]int{g.head: 1, &g.nodes[3]: 3}
	side := 3
	g.shapes = []shape{rect{2, 5}, &square{side: &side}}
	g.arr = [3]*node{g.head, nil, &g.nodes[0]}
	g.empty = &struct{}{}
	shared := 7
	g.store = counter{data: &shared}
	return g
}

func TestCopyKeepsValuesAndAliasing(t *testing.T) {
	g := newGraph()
	c, err := Copy(g)
	if err != nil {
		t.Fatal(err)
	}
	if c == g || c.head == g.head || &c.nodes[0] == &g.nodes[0] {
		t.Fatal("copy shares memory with the original")
	}
	if c.head.peer != c.head {
		t.Error("self pointer not kept")
	}
	if c.head.next != &c.nodes[2] || c.first != &c.nodes[1] {
		t.Error("pointers into a slice do not point into the copied slice")
	}
	for i := range c.nodes {
		if c.nodes[i].next != &c.nodes[(i+1)%4] || c.nodes[i].id != i || c.nodes[i].label != "n" {
			t.Errorf("node %d not copied with its links", i)
		}
	}
	if cap(c.nodes) != 8 {
		t.Errorf("slice capacity %d, want 8", cap(c.nodes))
	}
	if c.field != &c.pairs[1].b || *c.field != 4 {
		t.Error("pointer to a field of a slice element not kept")
	}
	if string(c.window) != "wo" || &c.window[0] != &c.buf[6] {
		t.Error("sub-slice does not share the copied backing array")
	}
	c.buf[6] = 'W'
	if c.window[0] != 'W' || g.buf[6] != 'w' {
		t.Error("write through the copied buffer leaked or was not seen")
	}
	if c.index[99] != c.head || c.index[0] != &c.nodes[0] {
		t.Error("map values not translated")
	}
	c.index[5] = c.head
	if c.alias[5] != c.head || g.index[5] != nil {
		t.Error("map identity not kept, or the original map changed")
	}
	if c.byPtr[c.head] != 1 || c.byPtr[&c.nodes[3]] != 3 || len(c.byPtr) != 2 {
		t.Error("pointer map keys not translated")
	}
	if c.shapes[0].area() != 10 || c.shapes[1].area() != 9 {
		t.Error("interface values not copied")
	}
	if c.shapes[1].(*square) == g.shapes[1].(*square) || c.shapes[1].(*square).side == g.shapes[1].(*square).side {
		t.Error("pointer in an interface not copied")
	}
	if c.arr[0] != c.head || c.arr[1] != nil || c.arr[2] != &c.nodes[0] {
		t.Error("array of pointers not translated")
	}
	if c.store.forks != 1 || c.store.data != g.store.data {
		t.Error("a Fork type was not copied through its Fork")
	}
	*c.head = node{}
	if g.head.id != 99 || g.head.peer != g.head {
		t.Error("writing the copy changed the original")
	}
}

func TestCopyRejectsFuncsAndChans(t *testing.T) {
	type withFunc struct{ f func() }
	type withChan struct{ c chan int }
	if _, err := Copy(&withFunc{f: func() {}}); err == nil || !strings.Contains(err.Error(), "func()") {
		t.Errorf("func: err = %v, want an error naming the func", err)
	}
	if _, err := Copy(withChan{c: make(chan int)}); err == nil {
		t.Error("chan: no error")
	}
	var inIface any = &withFunc{f: func() {}}
	if _, err := Copy(&inIface); err == nil {
		t.Error("func behind an interface: no error")
	}
	if _, err := Copy(&withFunc{}); err != nil {
		t.Errorf("nil func: %v", err)
	}
}

// TestCopyRejectsPartialOverlap covers two slices of one backing array
// that overlap without either holding the other: the copy cannot give
// both one array, so it refuses.
func TestCopyRejectsPartialOverlap(t *testing.T) {
	backing := []int{0, 1, 2, 3, 4, 5}
	v := struct{ a, b []int }{backing[0:3:4], backing[2:5]}
	if _, err := Copy(v); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("err = %v, want a partial-overlap error", err)
	}
}

// TestCopyConcurrent copies one graph from several goroutines at once;
// run it under -race.
func TestCopyConcurrent(t *testing.T) {
	g := newGraph()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Copy(g)
			if err != nil {
				t.Error(err)
				return
			}
			c.head.id = i
			c.nodes[0].id = i
			c.buf[0] = byte(i)
		}()
	}
	wg.Wait()
	if g.head.id != 99 || g.nodes[0].id != 0 || g.buf[0] != 'h' {
		t.Error("concurrent copies changed the original")
	}
}
