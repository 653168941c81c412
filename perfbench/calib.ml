(* Machine-speed calibration for wall-clock figures.

   On a shared host the same session can take 1.7x longer for seconds
   at a time (a fixed memory-bound loop shows the same phases), which
   swamps any change worth measuring. The benchmark therefore times a
   fixed reference kernel — allocation, string hashing and list
   traversal, like the simulator's own work — between sessions, and
   reports wall times scaled to the speed at which the kernel takes
   [nominal_ns]: t * nominal_ns / kernel_ns, with kernel_ns the median
   kernel time around the sample. The kernel is benchmark code that no
   change to the program touches, so the scaling cancels the host's
   speed, not the program's; it does share the heap, so costlier major
   collections slow it a little too. Raw kernel times are reported as
   the per-layer metric calib.kernel_ms. *)

let nominal_ns = 1e6
let table = Hashtbl.create 4096

let kernel () =
  Hashtbl.reset table;
  for i = 0 to 1999 do
    Hashtbl.replace table (string_of_int (i * 7919)) (List.init 8 (fun j -> i + j))
  done;
  let s = ref 0 in
  for i = 0 to 1999 do
    match Hashtbl.find_opt table (string_of_int (i * 7919)) with
    | Some l -> s := !s + List.fold_left ( + ) 0 l
    | None -> ()
  done;
  Sys.opaque_identity !s

(* One kernel run, in ns. *)
let time () =
  let t0 = Span.now () in
  ignore (kernel ());
  float_of_int (Span.now () - t0)

(* The median of three kernel runs, in ns. *)
let sample () =
  let a = time () in
  let b = time () in
  let c = time () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* [scale ?radius xs ks] scales each sample [xs.(i)] by the median
   kernel time [ks.(j)] for [j] within [radius] (default 2) of [i]. *)
let scale ?(radius = 2) xs ks =
  let n = Array.length xs in
  Array.mapi
    (fun i x ->
      let lo = max 0 (i - radius) and hi = min (n - 1) (i + radius) in
      x *. nominal_ns /. Stat.median (Array.sub ks lo (hi - lo + 1)))
    xs
