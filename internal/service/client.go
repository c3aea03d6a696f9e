package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is a minimal sdfd API client, shared by `sdfc -server` and the
// `sdffuzz -daemon` replay mode. Non-2xx responses surface as *APIError so
// callers can distinguish load shedding (429/503) from compile failures.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8347". A bare
	// host:port is accepted and treated as http.
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) base() string {
	u := strings.TrimRight(c.BaseURL, "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// decodeError turns a non-2xx response into an *APIError, synthesizing one
// when the body is not the structured error envelope.
func decodeError(status int, body []byte) error {
	var envelope struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err == nil && envelope.Error != nil {
		return envelope.Error
	}
	return &APIError{Status: status, Reason: "unexpected", Message: strings.TrimSpace(string(body))}
}

func (c *Client) do(req *http.Request) ([]byte, error) {
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp.StatusCode, body)
	}
	return body, nil
}

// call sends one request to path, with in as its JSON body unless in is
// nil, and decodes the 2xx answer into a fresh T.
func call[T any](c *Client, method, path string, in any) (*T, error) {
	var body io.Reader
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(payload)
	}
	httpReq, err := http.NewRequest(method, c.base()+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		httpReq.Header.Set("Content-Type", "application/json")
	}
	data, err := c.do(httpReq)
	if err != nil {
		return nil, err
	}
	out := new(T)
	if err := json.Unmarshal(data, out); err != nil {
		return nil, fmt.Errorf("sdfd: decoding %s response: %w", path, err)
	}
	return out, nil
}

// Compile POSTs one compile request. verify=true adds ?verify=1, asking the
// server to run the invariant oracle on the compilation.
func (c *Client) Compile(req CompileRequest, verify bool) (*CompileResponse, error) {
	path := "/v1/compile"
	if verify {
		path += "?verify=1"
	}
	return call[CompileResponse](c, http.MethodPost, path, req)
}

// Artifact fetches the raw cached artifact bytes for a digest.
func (c *Client) Artifact(digest string) ([]byte, error) {
	httpReq, err := http.NewRequest(http.MethodGet, c.base()+"/v1/artifact/"+digest, nil)
	if err != nil {
		return nil, err
	}
	return c.do(httpReq)
}

// Healthz probes the server, returning nil when it reports healthy.
func (c *Client) Healthz() error {
	httpReq, err := http.NewRequest(http.MethodGet, c.base()+"/healthz", nil)
	if err != nil {
		return err
	}
	_, err = c.do(httpReq)
	return err
}
