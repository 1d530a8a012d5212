package server

// Wire protocol of the push server. Client→server messages are JSON
// text frames (ClientOp); server→client messages are JSON text frames
// (Hello, FrameMeta, GensMsg, ErrorMsg, discriminated by Type), and
// each FrameMeta is immediately followed by one binary frame carrying
// the PNG it describes.

// ClientOp is one viewer operation from a client. Op selects the
// operation; unused fields are ignored.
//
//	"pan"    relative pan by (DX, DY) canvas units on Member
//	"panTo"  absolute pan to (X, Y)
//	"zoom"   multiply elevation by Factor (>1 zooms out)
//	"elev"   set elevation to Elev
//	"view"   set center (X, Y) and elevation Elev in one step
//	"resize" resize the client's framebuffer to W×H pixels
//	"render" request a frame without changing the view
//	"update" edit one field of one tuple: the per-type update function
//	         for Table.Col is run against Input and the result written
//	         through the optimistic CAS path, validated against the
//	         session's pinned snapshot. A lost race surfaces as an
//	         ErrorMsg with Code "stale"; on success the commit flows
//	         back as a gens broadcast plus re-rendered frames.
type ClientOp struct {
	Op     string  `json:"op"`
	Member int     `json:"member,omitempty"`
	X      float64 `json:"x,omitempty"`
	Y      float64 `json:"y,omitempty"`
	DX     float64 `json:"dx,omitempty"`
	DY     float64 `json:"dy,omitempty"`
	Factor float64 `json:"factor,omitempty"`
	Elev   float64 `json:"elev,omitempty"`
	W      int     `json:"w,omitempty"`
	H      int     `json:"h,omitempty"`
	// Table/Row/Col/Input address one field for the "update" op; Input
	// is the user's textual input to the per-type update function.
	Table string `json:"table,omitempty"`
	Row   int    `json:"row,omitempty"`
	Col   string `json:"col,omitempty"`
	Input string `json:"input,omitempty"`
	// Token is echoed on the next frame this operation produces, so a
	// client can pair requests with responses.
	Token string `json:"token,omitempty"`
}

// Viewport identifies a client's view of member 0: pan center and
// elevation. Two clients with equal viewports, sizes, and generation
// vectors receive byte-identical frames.
type Viewport struct {
	CX   float64 `json:"cx"`
	CY   float64 `json:"cy"`
	Elev float64 `json:"elev"`
}

// Hello is the first message after attach.
type Hello struct {
	Type    string           `json:"type"` // "hello"
	Session string           `json:"session"`
	Client  string           `json:"client"`
	W       int              `json:"w"`
	H       int              `json:"h"`
	Tables  []string         `json:"tables"`
	Gens    map[string]int64 `json:"gens"`
	Snap    uint64           `json:"snap"`
}

// FrameMeta announces one rendered frame; the PNG follows as the next
// binary message.
type FrameMeta struct {
	Type     string           `json:"type"` // "frame"
	Seq      int64            `json:"seq"`  // per-client frame counter
	Token    string           `json:"token,omitempty"`
	W        int              `json:"w"`
	H        int              `json:"h"`
	Viewport Viewport         `json:"viewport"`
	Gens     map[string]int64 `json:"gens"`      // generation vector the frame was rendered against
	Snap     uint64           `json:"snap"`      // db commit sequence of that snapshot
	RenderNS int64            `json:"render_ns"` // render only; PNG encode excluded
	TraceID  uint64           `json:"trace_id,omitempty"`
	PNGBytes int              `json:"png_bytes"`
}

// GensMsg announces that the session advanced to a new snapshot; a
// fresh frame for the client's current viewport follows.
type GensMsg struct {
	Type string           `json:"type"` // "gens"
	Gens map[string]int64 `json:"gens"`
	Snap uint64           `json:"snap"`
}

// ErrorMsg reports a failed operation or render without dropping the
// connection. Code classifies machine-actionable failures: "stale"
// means an optimistic update lost its race with a concurrent writer
// (db.ErrSnapshotStale) and the client should re-read and retry
// against the fresh frame that follows.
type ErrorMsg struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// ErrorCodeStale is ErrorMsg.Code for an optimistic update rejected
// because the client's snapshot no longer matches the table.
const ErrorCodeStale = "stale"

// AckMsg confirms a state-changing operation that produces no frame of
// its own (today: "update"). Token echoes the request's token; the
// committed data arrives separately as a gens broadcast plus frame.
type AckMsg struct {
	Type  string `json:"type"` // "ack"
	Op    string `json:"op"`
	Token string `json:"token,omitempty"`
}
