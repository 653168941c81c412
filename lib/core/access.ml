open Srpc_memory
open Srpc_types

type ptr = { addr : int; ty : string }

let ptr ~ty addr = { addr; ty }
let null ~ty = { addr = 0; ty }
let is_null p = p.addr = 0

let of_value = function
  | Value.Ptr { addr; ty } -> { addr; ty }
  | v -> invalid_arg (Format.asprintf "Access.of_value: %a is not a pointer" Value.pp v)

let to_value p = Value.Ptr { addr = p.addr; ty = p.ty }

(* Field resolution is on every data access of every workload. It reads
   the field's offset and resolved primitive or pointee from the layout
   the registry compiled for [p.ty] on this node's architecture, so it
   is per registry: two clusters may register the same name with
   different fields. *)
let layout node ty = Layout.of_name (Node.registry node) (Node.arch node) ty
let field_info node p ~field = Layout.field (layout node p.ty) field

let prim_of (f : Layout.field) =
  match f.layout.as_leaf with
  | Some (Layout.Scalar p) -> p
  | Some (Layout.Ptr _) | None -> invalid_arg "Access: field is not a primitive"

let check_not_null p =
  if is_null p then invalid_arg ("Access: null " ^ p.ty ^ " pointer dereference")

let get_int node p ~field =
  check_not_null p;
  Node.charge_touch ~addr:p.addr node;
  let f = field_info node p ~field in
  let addr = p.addr + f.offset in
  let m = Node.mmu node in
  match prim_of f with
  | Type_desc.I8 -> Mem.load_i8 m ~addr
  | I16 -> Mem.load_i16 m ~addr
  | I32 -> Int32.to_int (Mem.load_i32 m ~addr)
  | I64 -> Int64.to_int (Mem.load_i64 m ~addr)
  | F32 | F64 -> invalid_arg "Access.get_int: float field"

(* A store that leaves the bytes as they were is invisible to the
   coherency layer — the twin/shadow diffs find no dirty range and the
   write-back is elided — so the race checker must not be told a write
   happened either. The comparison load is only paid while a trace is
   collecting witnesses. *)
let set_int node p ~field v =
  check_not_null p;
  let f = field_info node p ~field in
  let addr = p.addr + f.offset in
  let m = Node.mmu node in
  let prim = prim_of f in
  let unchanged =
    Node.traced node
    &&
    match prim with
    | Type_desc.I8 -> Mem.load_i8 m ~addr = v
    | I16 -> Mem.load_i16 m ~addr = v
    | I32 -> Int32.equal (Mem.load_i32 m ~addr) (Int32.of_int v)
    | I64 -> Int64.equal (Mem.load_i64 m ~addr) (Int64.of_int v)
    | F32 | F64 -> false
  in
  Node.charge_touch ~addr:p.addr ~write:(not unchanged) node;
  match prim with
  | Type_desc.I8 -> Mem.store_i8 m ~addr v
  | I16 -> Mem.store_i16 m ~addr v
  | I32 -> Mem.store_i32 m ~addr (Int32.of_int v)
  | I64 -> Mem.store_i64 m ~addr (Int64.of_int v)
  | F32 | F64 -> invalid_arg "Access.set_int: float field"

let get_i64 node p ~field =
  check_not_null p;
  Node.charge_touch ~addr:p.addr node;
  let f = field_info node p ~field in
  Mem.load_i64 (Node.mmu node) ~addr:(p.addr + f.offset)

let set_i64 node p ~field v =
  check_not_null p;
  let f = field_info node p ~field in
  let addr = p.addr + f.offset in
  let m = Node.mmu node in
  let unchanged = Node.traced node && Int64.equal (Mem.load_i64 m ~addr) v in
  Node.charge_touch ~addr:p.addr ~write:(not unchanged) node;
  Mem.store_i64 m ~addr v

let get_f64 node p ~field =
  check_not_null p;
  Node.charge_touch ~addr:p.addr node;
  let f = field_info node p ~field in
  let addr = p.addr + f.offset in
  let m = Node.mmu node in
  match prim_of f with
  | Type_desc.F32 -> Mem.load_f32 m ~addr
  | F64 -> Mem.load_f64 m ~addr
  | I8 | I16 | I32 | I64 -> invalid_arg "Access.get_f64: integer field"

let set_f64 node p ~field v =
  check_not_null p;
  let f = field_info node p ~field in
  let addr = p.addr + f.offset in
  let m = Node.mmu node in
  let prim = prim_of f in
  let unchanged =
    (* bit-compare: the diff layer works on stored bytes, and NaNs must
       compare by representation, not IEEE equality *)
    Node.traced node
    &&
    match prim with
    | Type_desc.F32 ->
      Int32.equal
        (Int32.bits_of_float (Mem.load_f32 m ~addr))
        (Int32.bits_of_float v)
    | F64 ->
      Int64.equal (Int64.bits_of_float (Mem.load_f64 m ~addr))
        (Int64.bits_of_float v)
    | I8 | I16 | I32 | I64 -> false
  in
  Node.charge_touch ~addr:p.addr ~write:(not unchanged) node;
  match prim with
  | Type_desc.F32 -> Mem.store_f32 m ~addr v
  | F64 -> Mem.store_f64 m ~addr v
  | I8 | I16 | I32 | I64 -> invalid_arg "Access.set_f64: integer field"

let pointee (f : Layout.field) =
  match f.layout.as_leaf with
  | Some (Layout.Ptr target) -> target
  | Some (Layout.Scalar _) | None -> invalid_arg "Access: field is not a pointer"

let get_ptr node p ~field =
  check_not_null p;
  Node.charge_touch ~addr:p.addr node;
  let f = field_info node p ~field in
  let target = pointee f in
  let word = Mem.load_word (Node.mmu node) ~addr:(p.addr + f.offset) in
  { addr = word; ty = target }

let set_ptr node p ~field q =
  check_not_null p;
  let f = field_info node p ~field in
  let target = pointee f in
  if (not (is_null q)) && not (String.equal q.ty target) then
    invalid_arg
      (Printf.sprintf "Access.set_ptr: storing %s* into %s* field" q.ty target);
  let addr = p.addr + f.offset in
  let m = Node.mmu node in
  let unchanged = Node.traced node && Mem.load_word m ~addr = q.addr in
  Node.charge_touch ~addr:p.addr ~write:(not unchanged) node;
  Mem.store_word m ~addr q.addr

(* a layout's size is a multiple of its alignment, so it is the array
   stride *)
let elem node p i =
  check_not_null p;
  { p with addr = p.addr + (i * (layout node p.ty).size) }

let load_int node p =
  check_not_null p;
  Node.charge_touch ~addr:p.addr node;
  let m = Node.mmu node in
  match (layout node p.ty).as_leaf with
  | Some (Layout.Scalar I8) -> Mem.load_i8 m ~addr:p.addr
  | Some (Layout.Scalar I16) -> Mem.load_i16 m ~addr:p.addr
  | Some (Layout.Scalar I32) -> Int32.to_int (Mem.load_i32 m ~addr:p.addr)
  | Some (Layout.Scalar I64) -> Int64.to_int (Mem.load_i64 m ~addr:p.addr)
  | Some (Layout.Scalar (F32 | F64) | Layout.Ptr _) | None ->
    invalid_arg "Access.load_int: not an integer pointee"

let store_int node p v =
  check_not_null p;
  let m = Node.mmu node in
  let leaf = (layout node p.ty).as_leaf in
  let unchanged =
    Node.traced node
    &&
    match leaf with
    | Some (Layout.Scalar I8) -> Mem.load_i8 m ~addr:p.addr = v
    | Some (Layout.Scalar I16) -> Mem.load_i16 m ~addr:p.addr = v
    | Some (Layout.Scalar I32) ->
      Int32.equal (Mem.load_i32 m ~addr:p.addr) (Int32.of_int v)
    | Some (Layout.Scalar I64) ->
      Int64.equal (Mem.load_i64 m ~addr:p.addr) (Int64.of_int v)
    | _ -> false
  in
  Node.charge_touch ~addr:p.addr ~write:(not unchanged) node;
  match leaf with
  | Some (Layout.Scalar I8) -> Mem.store_i8 m ~addr:p.addr v
  | Some (Layout.Scalar I16) -> Mem.store_i16 m ~addr:p.addr v
  | Some (Layout.Scalar I32) -> Mem.store_i32 m ~addr:p.addr (Int32.of_int v)
  | Some (Layout.Scalar I64) -> Mem.store_i64 m ~addr:p.addr (Int64.of_int v)
  | Some (Layout.Scalar (F32 | F64) | Layout.Ptr _) | None ->
    invalid_arg "Access.store_int: not an integer pointee"
