package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestDecodeContractRouterMatchesBackend sends each body to the router
// and to a backend that holds the graph, and requires the same status
// from both: the router's full decodes (edit, JSON upload) and the
// backend's handlers refuse unknown fields and data after the JSON
// value alike, and the read path, which forwards the body for the
// backend to validate, agrees with them too.
func TestDecodeContractRouterMatchesBackend(t *testing.T) {
	tc := newTestCluster(t)
	text := pipelineText(t, 4)
	up, err := tc.cl.UploadText(context.Background(), text)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	backend := Placement(up.Fingerprint, tc.urls, 2)[0]
	quoted, _ := json.Marshal(text)
	fp := `"fingerprint":"` + up.Fingerprint + `"`
	edit := `{` + fp + `,"edits":[{"arc":0,"delay":3}]`
	upload := `{"graph":` + string(quoted)

	for _, c := range []struct {
		name, path, body string
		want             int
	}{
		{"edit", "/v1/edit", edit + `}`, http.StatusOK},
		{"edit unknown field", "/v1/edit", edit + `,"bogus":1}`, http.StatusBadRequest},
		{"edit trailing value", "/v1/edit", edit + `} {}`, http.StatusBadRequest},
		{"edit trailing garbage", "/v1/edit", edit + `}x`, http.StatusBadRequest},
		{"upload", "/v1/graphs", upload + `}`, http.StatusOK},
		{"upload unknown field", "/v1/graphs", upload + `,"bogus":1}`, http.StatusBadRequest},
		{"upload trailing value", "/v1/graphs", upload + `} {}`, http.StatusBadRequest},
		{"analyze", "/v1/analyze", `{` + fp + `}`, http.StatusOK},
		{"analyze unknown field", "/v1/analyze", `{` + fp + `,"bogus":1}`, http.StatusBadRequest},
		{"analyze trailing value", "/v1/analyze", `{` + fp + `} {}`, http.StatusBadRequest},
	} {
		for _, base := range []string{tc.front.URL, backend} {
			resp, err := http.Post(base+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatalf("%s via %s: %v", c.name, base, err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				who := "backend"
				if base == tc.front.URL {
					who = "router"
				}
				t.Errorf("%s: %s answered %d, want %d", c.name, who, resp.StatusCode, c.want)
			}
		}
	}
}
