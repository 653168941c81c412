open Srpc_memory

type leaf_kind = Scalar of Type_desc.prim | Ptr of string
type leaf = { leaf_offset : int; kind : leaf_kind }

type layout = {
  size : int;
  align : int;
  fields : field list;
  leaves : leaf list;
  pointer_leaves : (int * string) list;
  as_leaf : leaf_kind option;
}

and field = { name : string; offset : int; ty : Type_desc.t; layout : layout }

type t = {
  types : (string, Type_desc.t) Hashtbl.t;
  ids : (string, int) Hashtbl.t;
  names : (int, string) Hashtbl.t;
  mutable next_id : int;
  mutable layouts : (Arch.t * (string, layout) Hashtbl.t) list;
}

exception Unknown_type of string
exception Duplicate_type of string
exception Recursive_type of string

let create () =
  { types = Hashtbl.create 32; ids = Hashtbl.create 32; names = Hashtbl.create 32;
    next_id = 0; layouts = [] }

let register t name desc =
  match Hashtbl.find_opt t.types name with
  | None ->
    Hashtbl.add t.types name desc;
    Hashtbl.add t.ids name t.next_id;
    Hashtbl.add t.names t.next_id name;
    t.next_id <- t.next_id + 1
  | Some existing ->
    if not (Type_desc.equal existing desc) then raise (Duplicate_type name)

let find_opt t name = Hashtbl.find_opt t.types name

let find t name =
  match find_opt t name with
  | Some d -> d
  | None -> raise (Unknown_type name)

let mem t name = Hashtbl.mem t.types name

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.types [] |> List.sort compare

let id_of_name t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None -> raise (Unknown_type name)

let name_of_id t id =
  match Hashtbl.find_opt t.names id with
  | Some name -> name
  | None -> raise (Unknown_type (Printf.sprintf "#%d" id))

let resolve t desc =
  (* A Named chain longer than the registry is necessarily cyclic. *)
  let max_depth = Hashtbl.length t.types + 1 in
  let rec go depth = function
    | Type_desc.Named name ->
      if depth > max_depth then raise (Unknown_type (name ^ " (cyclic alias)"));
      go (depth + 1) (find t name)
    | (Type_desc.Prim _ | Pointer _ | Array _ | Struct _) as d -> d
  in
  go 0 desc

(* --- compiled layouts --- *)

let round_up n align = (n + align - 1) / align * align

let shift base leaves =
  if base = 0 then leaves
  else List.map (fun l -> { l with leaf_offset = base + l.leaf_offset }) leaves

let pointers leaves =
  List.filter_map
    (fun l -> match l.kind with Ptr t -> Some (l.leaf_offset, t) | Scalar _ -> None)
    leaves

let rec arch_table arch = function
  | (a, tbl) :: rest ->
    if a == arch || Arch.equal a arch then tbl else arch_table arch rest
  | [] -> raise Not_found

let table t arch =
  try arch_table arch t.layouts
  with Not_found ->
    let tbl = Hashtbl.create 16 in
    t.layouts <- (arch, tbl) :: t.layouts;
    tbl

let atom size kind =
  let leaves = [ { leaf_offset = 0; kind } ] in
  { size; align = size; fields = []; leaves; pointer_leaves = pointers leaves;
    as_leaf = Some kind }

(* [visiting] tracks Named types being laid out by value, to reject
   infinitely-sized types (a struct containing itself not behind a
   pointer). Pointers do not recurse, so list/tree nodes are fine. A
   Named type is compiled once per architecture and kept: registration
   is append-only and a re-registration must be identical, so a stored
   layout never goes stale. Failed compiles are not stored, so they
   raise again on every call. *)
let rec compile t arch visiting (ty : Type_desc.t) =
  match ty with
  | Prim p -> atom (Type_desc.prim_size p) (Scalar p)
  | Pointer target -> atom arch.Arch.word_size (Ptr target)
  | Named name -> named t arch visiting name
  | Array (elem, n) ->
    if n < 0 then invalid_arg "Layout: negative array length";
    let el = compile t arch visiting elem in
    let stride = round_up el.size el.align in
    let leaves = List.concat (List.init n (fun i -> shift (i * stride) el.leaves)) in
    { size = stride * n; align = el.align; fields = []; leaves;
      pointer_leaves = pointers leaves; as_leaf = None }
  | Struct fs ->
    let offset, align, rev_fields =
      List.fold_left
        (fun (offset, align, acc) (name, fty) ->
          let fl = compile t arch visiting fty in
          let offset = round_up offset fl.align in
          let f = { name; offset; ty = fty; layout = fl } in
          (offset + fl.size, max align fl.align, f :: acc))
        (0, 1, []) fs
    in
    let fields = List.rev rev_fields in
    let leaves = List.concat_map (fun f -> shift f.offset f.layout.leaves) fields in
    { size = round_up offset align; align; fields; leaves;
      pointer_leaves = pointers leaves; as_leaf = None }

and named t arch visiting name =
  let tbl = table t arch in
  match Hashtbl.find tbl name with
  | l -> l
  | exception Not_found ->
    if List.mem name visiting then raise (Recursive_type name);
    let l = compile t arch (name :: visiting) (find t name) in
    Hashtbl.add tbl name l;
    l

let layout t arch ty = compile t arch [] ty
let layout_of_name t arch name = named t arch [] name
