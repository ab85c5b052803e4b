package serve_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"talus/internal/serve"
	"talus/internal/store"
)

// TestRoutingTable pins what each (method, raw path) is answered with —
// status, Allow, Location and body — so that the owned connections'
// own dispatch of cache requests cannot drift from the mux's. Rows run in
// order against one server; a body ending in "…" is a prefix. The rows
// run on each transport, and both must see the same replies, header for
// header and byte for byte.
func TestRoutingTable(t *testing.T) {
	const notAllowed, notFound = "Method Not Allowed\n", "404 page not found\n"
	moved := func(to string) string { return `<a href="` + to + `">Moved Permanently</a>.` + "\n\n" }
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	rows := []struct {
		method, path, in string
		status           int
		allow, location  string
		body             string
	}{
		{"PUT", "/v1/cache/a/k", "v", 204, "", "", ""},
		{"GET", "/v1/cache/a/k", "", 200, "", "", "v"},
		{"GET", "/v1/cache/a/k?x=1", "", 200, "", "", "v"},
		{"HEAD", "/v1/cache/a/k", "", 200, "", "", ""},
		{"POST", "/v1/cache/a/k", "", 405, "DELETE, GET, HEAD, PUT", "", notAllowed},
		{"PATCH", "/v1/cache/a/k", "", 405, "DELETE, GET, HEAD, PUT", "", notAllowed},
		{"OPTIONS", "/v1/cache/a/k", "", 405, "DELETE, GET, HEAD, PUT", "", notAllowed},
		{"GET", "/v1/cache/alice", "", 301, "", "/v1/cache/alice/", moved("/v1/cache/alice/")},
		{"GET", "/v1/cache/alice/", "", 400, "", "", `{"error":"store: empty key"}` + "\n"},
		{"GET", "/v1/cache/a/../b/k", "", 301, "", "/v1/cache/b/k", moved("/v1/cache/b/k")},
		{"GET", "/v1/cache//k", "", 301, "", "/v1/cache/k/", moved("/v1/cache/k/")},
		{"GET", "/v1/cache/a/./k", "", 301, "", "/v1/cache/a/k", moved("/v1/cache/a/k")},
		{"GET", "/v1/cache/a//k", "", 301, "", "/v1/cache/a/k", moved("/v1/cache/a/k")},
		{"GET", "/v1/cache/a/k/", "", 404, "", "", `{"error":"store: key not found: \"k/\""}` + "\n"},
		{"PUT", "/v1/cache/a%2Fb/k", "tenant a/b", 204, "", "", ""},
		{"GET", "/v1/cache/a%2Fb/k", "", 200, "", "", "tenant a/b"},
		{"PUT", "/v1/cache/a/k%2Fx/y", "key k/x/y", 204, "", "", ""},
		{"GET", "/v1/cache/a/k/x/y", "", 200, "", "", "key k/x/y"},
		{"GET", "/v1/cache/a/k%2Fx%2Fy", "", 200, "", "", "key k/x/y"},
		{"DELETE", "/v1/cache/a/k", "", 204, "", "", ""},
		{"HEAD", "/v1/cache/a/k", "", 404, "", "", ""},
		{"DELETE", "/v1/cache/a/k", "", 404, "", "", `{"error":"store: key not found: \"k\""}` + "\n"},
		{"GET", "/v1/stats", "", 200, "", "", `{"tenants":[{"tenant":"a","partition":0,…`},
		{"HEAD", "/v1/stats", "", 200, "", "", ""},
		{"PUT", "/v1/stats", "", 405, "GET, HEAD", "", notAllowed},
		{"GET", "/v1/curves", "", 200, "", "", `{"tenants":[{"tenant":"a","allocLines":…`},
		{"DELETE", "/v1/curves", "", 405, "GET, HEAD", "", notAllowed},
		{"GET", "/v1/cluster", "", 200, "", "", `{"clustered":false,"node":{…`},
		{"POST", "/v1/cluster", "", 405, "GET, HEAD", "", notAllowed},
		{"GET", "/v1/control", "", 200, "", "", `{"epochs":0,"churn":0,"epoch_accesses":16384,…`},
		{"PUT", "/v1/control", "", 405, "GET, HEAD", "", notAllowed},
		{"PUT", "/v1/control/tenants/a", `{"weight":2}`, 403, "", "",
			`{"error":"control disabled: the server was started without the control plane enabled"}` + "\n"},
		{"GET", "/v1/control/tenants/a", "", 405, "PUT", "", notAllowed},
		{"POST", "/v1/record", `{"action":"stop"}`, 403, "", "",
			`{"error":"recording disabled: the server was started without a record directory"}` + "\n"},
		{"GET", "/v1/record", "", 405, "POST", "", notAllowed},
		{"GET", "/v1/nope", "", 404, "", "", notFound},
		{"GET", "/v1/stats/", "", 404, "", "", notFound},
		{"GET", "/v1/../v1/stats", "", 301, "", "/v1/stats", moved("/v1/stats")},
		{"GET", "/", "", 404, "", "", notFound},
		{"GET", "/v1/cache", "", 404, "", "", notFound},
		{"GET", "/v1/cache/", "", 404, "", "", notFound},
	}
	var replies [][]reply
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			srv, st, hijacks := newServerVia(t, tr, store.Config{Tenants: []string{"a"}}, serve.Config{})
			var seen []reply
			for _, c := range rows {
				var in io.Reader
				if c.in != "" {
					in = strings.NewReader(c.in)
				}
				req, err := http.NewRequest(c.method, srv.URL+c.path, in)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				seen = append(seen, newReply(resp, b, st))
				body, prefix := strings.CutSuffix(c.body, "…")
				bodyOK := string(b) == body || (prefix && strings.HasPrefix(string(b), body))
				if resp.StatusCode != c.status || resp.Header.Get("Allow") != c.allow ||
					resp.Header.Get("Location") != c.location || !bodyOK {
					t.Errorf("%s %s = %d Allow %q Location %q body %q; want %d %q %q %q", c.method, c.path,
						resp.StatusCode, resp.Header.Get("Allow"), resp.Header.Get("Location"), b,
						c.status, c.allow, c.location, c.body)
				}
			}
			// An escaped slash is part of its segment: tenant "a/b", key "k/x/y".
			if v, _, err := st.Get("a/b", "k"); err != nil || string(v) != "tenant a/b" {
				t.Errorf(`store Get("a/b", "k") = %q, %v`, v, err)
			}
			if v, _, err := st.Get("a", "k/x/y"); err != nil || string(v) != "key k/x/y" {
				t.Errorf(`store Get("a", "k/x/y") = %q, %v`, v, err)
			}
			tr.checkHijacks(t, hijacks)
			replies = append(replies, seen)
		})
	}
	sameReplies(t, replies)
}
