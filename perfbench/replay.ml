(* Wire replay: frames captured from a workload's real traffic, decoded
   and re-encoded under the clock.

   Capture is untimed. A [Trace] plus a frame labeler are attached to
   the cluster's transport; the labeler sees every frame's bytes, keeps
   them, and returns the frame's opcode label. Replay then checks that
   decoding and re-encoding each frame gives back the captured bytes,
   and times [Wire.decode_*] and [Wire.encode_*] over the whole set. *)

open Srpc_core
open Srpc_simnet

type frame = { dir : Trace.direction; data : string; reg : Srpc_types.Registry.t }

let label reg ~dir data =
  match dir with
  | Trace.Request -> Wire.request_label (snd (Wire.decode_framed ~reg data))
  | Trace.Reply -> Wire.response_label (Wire.decode_response ~reg data)

(* Every label [Wire.request_label]/[response_label] can return. *)
let labels =
  [ "call"; "fetch"; "write-back"; "alloc-batch"; "free-batch"; "invalidate"; "abort";
    "wb-stage"; "wb-commit"; "wb-delta"; "wb-delta+inv"; "wb-stage-delta"; "call-d"; "hb";
    "offload-call"; "return"; "fetched"; "allocated"; "ack"; "error"; "return-d";
    "hb-ack"; "offload-return" ]

(* Metric-name form of a label ('+' is not allowed in metric names). *)
let metric_of_label l =
  "wire.frames." ^ String.map (fun c -> if c = '+' then '_' else c) l

type capture = { mutable frames : frame list; mutable count : int }

let create () = { frames = []; count = 0 }

(* Keep at most this many frames per capture; the counts by label cover
   every frame. *)
let max_frames = 20_000

let by_label : (string, int ref) Hashtbl.t = Hashtbl.create 32

let attach cap cluster =
  let reg = Cluster.registry cluster in
  let tr = Cluster.transport cluster in
  Transport.set_trace tr (Some (Trace.create ()));
  Transport.set_frame_labeler tr
    (Some
       (fun ~dir data ->
         let l = label reg ~dir data in
         (match Hashtbl.find_opt by_label l with
         | Some r -> incr r
         | None -> Hashtbl.replace by_label l (ref 1));
         if cap.count < max_frames then begin
           cap.frames <- { dir; data; reg } :: cap.frames;
           cap.count <- cap.count + 1
         end;
         l))

let frames_of_label l = match Hashtbl.find_opt by_label l with Some r -> !r | None -> 0

let reencode f =
  match f.dir with
  | Trace.Request -> (
    match Wire.decode_framed ~reg:f.reg f.data with
    | Some seq, r -> Wire.encode_framed ~reg:f.reg ~seq r
    | None, r -> Wire.encode_request ~reg:f.reg r)
  | Trace.Reply -> Wire.encode_response ~reg:f.reg (Wire.decode_response ~reg:f.reg f.data)

type timing = {
  ok : bool;  (** every frame re-encoded to its captured bytes *)
  frames : int;
  kb : float;  (** per pass *)
  decode_ns_per_kb : float;
  encode_ns_per_kb : float;
  words_per_kb : float;
}

(* Decode and re-encode every frame, one pass after another, until
   [seconds] have passed (at least three passes); each figure is the
   median over passes. *)
let time ~seconds (cap : capture) =
  let frames = Array.of_list (List.rev cap.frames) in
  let ok = Array.for_all (fun f -> String.equal (reencode f) f.data) frames in
  let bytes = Array.fold_left (fun a f -> a + String.length f.data) 0 frames in
  let kb = float_of_int bytes /. 1024.0 in
  let dec = Stat.Fbuf.create () and enc = Stat.Fbuf.create () and wds = Stat.Fbuf.create () in
  let deadline = Span.now () + int_of_float (seconds *. 1e9) in
  while Stat.Fbuf.length dec < 3 || Span.now () < deadline do
    let d = ref 0 and e = ref 0 in
    let w0 = Span.minor_words () in
    Array.iter
      (fun f ->
        let t0 = Span.now () in
        match f.dir with
        | Trace.Request ->
          let seq, r = Wire.decode_framed ~reg:f.reg f.data in
          let t1 = Span.now () in
          ignore
            (match seq with
            | Some seq -> Wire.encode_framed ~reg:f.reg ~seq r
            | None -> Wire.encode_request ~reg:f.reg r);
          d := !d + (t1 - t0);
          e := !e + (Span.now () - t1)
        | Trace.Reply ->
          let r = Wire.decode_response ~reg:f.reg f.data in
          let t1 = Span.now () in
          ignore (Wire.encode_response ~reg:f.reg r);
          d := !d + (t1 - t0);
          e := !e + (Span.now () - t1))
      frames;
    let w = Span.minor_words () - w0 in
    Stat.Fbuf.push dec (Stat.ratio (float_of_int !d) kb);
    Stat.Fbuf.push enc (Stat.ratio (float_of_int !e) kb);
    Stat.Fbuf.push wds (Stat.ratio (float_of_int w) kb)
  done;
  {
    ok;
    frames = Array.length frames;
    kb;
    decode_ns_per_kb = Stat.median (Stat.Fbuf.to_array dec);
    encode_ns_per_kb = Stat.median (Stat.Fbuf.to_array enc);
    words_per_kb = Stat.median (Stat.Fbuf.to_array wds);
  }
