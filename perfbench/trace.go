package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The traced run stamps the edges of each request from the benchmark's
// own code: the client stamps around its call into the program, the
// server stamps on entry to and exit from the benchmark's work
// callback. The edges give one span tree per request, all sharing the
// request's (client, Seq) id:
//
//	send       [due, ret]  the whole request
//	  due_wait  [due, send] open loop only: how late the generator sent
//	  req_leg   [send, in]  client call to server callback entry
//	  serve     [in, out]   the work callback
//	  reply_leg [out, ret]  callback exit to the reply in the client's hands
//
// On the closed loops a request is due when it is sent, so due_wait is
// empty there.

// edges are one request's stamps on the host-wide mono clock.
type edges struct {
	due, send, in, out, ret int64
}

// spanTree derives the request's spans from its edges.
func (e edges) spanTree() (root span, kids [4]span) {
	return span{e.due, e.ret}, [4]span{
		{e.due, e.send}, {e.send, e.in}, {e.in, e.out}, {e.out, e.ret},
	}
}

var spanNames = [5]string{"send", "due_wait", "req_leg", "serve", "reply_leg"}

// traceBuf holds the traced phase's edges in memory, per client,
// indexed by Seq-traceBase. Client and server write different fields
// of an entry, so the two sides never write the same word.
type traceBuf struct {
	reqs [][]edges
	n    []int // entries the client filled
}

// traceCap bounds the traced phase per client: enough samples that a
// p99 has hundreds beyond it, few enough to keep the buffer at 2.5 MiB
// per client and the span file small.
const traceCap = 1 << 16

func newTraceBuf(clients int) *traceBuf {
	t := &traceBuf{reqs: make([][]edges, clients), n: make([]int, clients)}
	for i := range t.reqs {
		t.reqs[i] = make([]edges, traceCap)
	}
	return t
}

// slot returns the entry of a traced request, or nil for any other Seq.
func (t *traceBuf) slot(client int32, seq int32) *edges {
	if t == nil || seq < traceBase || seq-traceBase >= traceCap || int(client) >= len(t.reqs) || client < 0 {
		return nil
	}
	return &t.reqs[client][seq-traceBase]
}

// complete reports whether every edge of the request was stamped: a
// rejected or shed open-loop request has no server or return edge.
func (e edges) complete() bool { return e.send != 0 && e.in != 0 && e.out != 0 && e.ret != 0 }

// traceStats is the span summary of one traced phase.
type traceStats struct {
	self   [5]hist // self time per span name
	reqLeg hist
	repLeg hist
	root   hist
}

func (t *traceBuf) stats() *traceStats {
	s := &traceStats{}
	for c, reqs := range t.reqs {
		for _, e := range reqs[:t.n[c]] {
			if !e.complete() {
				continue
			}
			root, kids := e.spanTree()
			s.self[0].add(selfTime(root, kids[:]))
			for i, k := range kids {
				s.self[i+1].add(k.dur())
			}
			s.reqLeg.add(kids[1].dur())
			s.repLeg.add(kids[3].dur())
			s.root.add(root.dur())
		}
	}
	return s
}

// write puts the spans and their self-time summary in dir: one TSV line
// per request with its edges (ns, relative to the first traced send),
// and a JSON summary of self time per span name.
func (t *traceBuf) write(dir, workload string, s *traceStats) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, workload+".spans.tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	base := int64(-1)
	for c := range t.reqs {
		if t.n[c] > 0 && (base < 0 || t.reqs[c][0].due < base) {
			base = t.reqs[c][0].due
		}
	}
	fmt.Fprintf(w, "# %s spans: send=[due,ret] > due_wait=[due,send] req_leg=[send,in] serve=[in,out] reply_leg=[out,ret]\n", workload)
	fmt.Fprintln(w, "client\tseq\tdue\tsend\tin\tout\tret")
	for c, reqs := range t.reqs {
		for i, e := range reqs[:t.n[c]] {
			if !e.complete() {
				continue
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\n", c, int64(traceBase)+int64(i),
				e.due-base, e.send-base, e.in-base, e.out-base, e.ret-base)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	sum := map[string]dist{}
	for i, name := range spanNames {
		sum[name+".self"] = s.self[i].dist()
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".selftime.json"), append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("trace summary: %w", err)
	}
	return path, nil
}

// finishTrace writes the spans and fills the span-derived per-layer
// metrics. untracedP50us is the same run's untraced median, the base
// of the tracing overhead.
func finishTrace(rc *runCfg, out *outcome, t *traceBuf, untracedP50us float64) error {
	s := t.stats()
	path, err := t.write(rc.traceDir, rc.workload, s)
	if err != nil {
		return err
	}
	out.info["span_file"] = path
	req, rep, root := s.reqLeg.dist(), s.repLeg.dist(), s.root.dist()
	out.dists["trace.req_leg"] = req
	out.dists["trace.reply_leg"] = rep
	out.dists["trace.send"] = root
	l := out.layer
	l["core.req_leg_us.p50"] = req.P50us
	l["core.req_leg_us.p99"] = req.P99us
	l["core.reply_leg_us.p50"] = rep.P50us
	l["core.reply_leg_us.p99"] = rep.P99us
	l["bench.trace_overhead_frac"] = 0
	if untracedP50us > 0 {
		l["bench.trace_overhead_frac"] = root.P50us/untracedP50us - 1
	}
	return nil
}
