(* Order statistics over measured samples. *)

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile (xs : float array) p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
  end

let median xs = percentile xs 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Growable float buffer. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
  let length b = b.n
  let clear b = b.n <- 0
end

(* Named per-layer sums, accumulated by the traced run. *)
module Sums = struct
  let tbl : (string, float ref) Hashtbl.t = Hashtbl.create 64

  let add name v =
    match Hashtbl.find_opt tbl name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.replace tbl name (ref v)

  let get name = match Hashtbl.find_opt tbl name with Some r -> !r | None -> 0.0
  let reset () = Hashtbl.reset tbl
end

(* Sum of two stats snapshots, field by field. *)
let add_stats a b = Srpc_simnet.Stats.(diff a (diff zero b))
