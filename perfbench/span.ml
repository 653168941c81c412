(* Spans recorded by the benchmark around its own calls into each layer.

   A span has a layer, a start, a duration and the minor words
   allocated while it was open; spans nest. A layer's self time is its
   span's duration minus the time its direct child spans cover. Spans
   are kept in memory — per-layer self-time samples for the metrics,
   plus the first [max_events] spans for the Chrome trace — and written
   out when the benchmark ends.

   With recording off ([on] false) the callers take their untraced path
   and record no spans, so end-to-end figures carry no tracing cost. *)

type layer =
  | Session  (** one closed-loop session: begin, calls, close *)
  | Call  (** [Node.call] *)
  | Body  (** the benchmark's callee procedure body *)
  | Access_hit  (** an [Access] call that serviced no fault *)
  | Access_fault  (** an [Access] call that serviced a fault *)
  | Close  (** [Node.end_session] *)
  | Run  (** one [Traffic.run] or [Soak.run] *)

let layers =
  [| Session; Call; Body; Access_hit; Access_fault; Close; Run |]

let index = function
  | Session -> 0
  | Call -> 1
  | Body -> 2
  | Access_hit -> 3
  | Access_fault -> 4
  | Close -> 5
  | Run -> 6

let name = function
  | Session -> "session"
  | Call -> "call"
  | Body -> "body"
  | Access_hit -> "access.hit"
  | Access_fault -> "access.fault"
  | Close -> "close"
  | Run -> "run"

let nlayers = Array.length layers
let on = ref false

(* Attribution self-test hook: a busy-wait of [ns] added inside the span
   of [layer], just before the span ends. *)
let inject : (layer * int) option ref = ref None

let now () = Int64.to_int (Monotonic_clock.now ())

(* Per-layer aggregates: self-time samples, durations, words. *)
let self_ns = Array.init nlayers (fun _ -> Stat.Fbuf.create ())
let dur_ns = Array.init nlayers (fun _ -> Stat.Fbuf.create ())
let self_words = Array.make nlayers 0
let words = Array.make nlayers 0
let count = Array.make nlayers 0

(* The open-span stack. *)
let max_depth = 64
let st_t0 = Array.make max_depth 0
let st_w0 = Array.make max_depth 0
let st_child_ns = Array.make max_depth 0
let st_child_words = Array.make max_depth 0
let st_event = Array.make max_depth (-1)
let depth = ref 0

(* Chrome trace events, capped. *)
let max_events = 50_000
let ev_layer = Array.make max_events 0
let ev_ts = Array.make max_events 0
let ev_dur = Array.make max_events 0
let ev_words = Array.make max_events 0
let ev_session = Array.make max_events 0
let nevents = ref 0
let session_id = ref 0
let epoch = ref 0
let minor_words () = int_of_float (Gc.minor_words ())

let reset () =
  Array.iter Stat.Fbuf.clear self_ns;
  Array.iter Stat.Fbuf.clear dur_ns;
  Array.fill self_words 0 nlayers 0;
  Array.fill words 0 nlayers 0;
  Array.fill count 0 nlayers 0;
  depth := 0;
  nevents := 0;
  epoch := now ()

let enter () =
  let d = !depth in
  if d >= max_depth then failwith "Span.enter: nesting too deep";
  depth := d + 1;
  st_child_ns.(d) <- 0;
  st_child_words.(d) <- 0;
  st_event.(d) <- -1;
  if !nevents < max_events then begin
    st_event.(d) <- !nevents;
    incr nevents
  end;
  st_w0.(d) <- minor_words ();
  st_t0.(d) <- now ()

let rec spin until = if now () < until then spin until

let finish layer t1 w1 =
  let d = !depth - 1 in
  let w = w1 - st_w0.(d) in
  depth := d;
  let dur = t1 - st_t0.(d) in
  let i = index layer in
  Stat.Fbuf.push self_ns.(i) (float_of_int (dur - st_child_ns.(d)));
  Stat.Fbuf.push dur_ns.(i) (float_of_int dur);
  self_words.(i) <- self_words.(i) + (w - st_child_words.(d));
  words.(i) <- words.(i) + w;
  count.(i) <- count.(i) + 1;
  if d > 0 then begin
    st_child_ns.(d - 1) <- st_child_ns.(d - 1) + dur;
    st_child_words.(d - 1) <- st_child_words.(d - 1) + w
  end;
  let e = st_event.(d) in
  if e >= 0 then begin
    ev_layer.(e) <- i;
    ev_ts.(e) <- st_t0.(d) - !epoch;
    ev_dur.(e) <- dur;
    ev_words.(e) <- w;
    ev_session.(e) <- !session_id
  end

(* [leave layer] closes the innermost open span. *)
let leave layer =
  (match !inject with
  | Some (l, ns) when l = layer -> spin (now () + ns)
  | _ -> ());
  let t1 = now () in
  finish layer t1 (minor_words ())

(* [leave_by classify] closes the innermost open span, attributing it to
   the layer [classify ()] names once the span's clock has stopped
   (whether an [Access] call serviced a fault is known only then). *)
let leave_by classify =
  let t1 = now () in
  let w1 = minor_words () in
  finish (classify ()) t1 w1

(* [wrap layer f] runs [f] inside a span of [layer]. *)
let wrap layer f =
  enter ();
  match f () with
  | v ->
    leave layer;
    v
  | exception e ->
    leave layer;
    raise e

let samples layer = Stat.Fbuf.to_array self_ns.(index layer)
let durations layer = Stat.Fbuf.to_array dur_ns.(index layer)
let count_of layer = count.(index layer)
let words_of layer = words.(index layer)
let self_words_of layer = self_words.(index layer)

(* Chrome trace-event JSON ("X" complete events, microseconds). Spans
   are written in the order they began, so viewers nest them by time. *)
let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  for e = 0 to !nevents - 1 do
    if e > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"words\":%d,\"session\":%d}}"
      (name layers.(ev_layer.(e)))
      (float_of_int ev_ts.(e) /. 1e3)
      (float_of_int ev_dur.(e) /. 1e3)
      ev_words.(e) ev_session.(e)
  done;
  output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n";
  close_out oc

(* Per-layer sample counts now; with [self_since] and [dur_since], the
   self time and span time each layer accrued after the mark. *)
let marks () = Array.map Stat.Fbuf.length self_ns

let sum_since bufs m layer =
  let i = index layer in
  let a = Stat.Fbuf.to_array bufs.(i) in
  let s = ref 0.0 in
  for k = m.(i) to Array.length a - 1 do
    s := !s +. a.(k)
  done;
  !s

let self_since m layer = sum_since self_ns m layer
let dur_since m layer = sum_since dur_ns m layer
