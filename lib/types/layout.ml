type leaf_kind = Registry.leaf_kind = Scalar of Type_desc.prim | Ptr of string
type leaf = Registry.leaf = { leaf_offset : int; kind : leaf_kind }

type t = Registry.layout = {
  size : int;
  align : int;
  fields : field list;
  leaves : leaf list;
  pointer_leaves : (int * string) list;
  as_leaf : leaf_kind option;
}

and field = Registry.field = { name : string; offset : int; ty : Type_desc.t; layout : t }

exception Recursive_type = Registry.Recursive_type

let of_type = Registry.layout
let of_name = Registry.layout_of_name
let sizeof reg arch ty = (of_type reg arch ty).size
let sizeof_name reg arch name = (of_name reg arch name).size

let field l name =
  let rec go = function
    | f :: rest -> if String.equal f.name name then f else go rest
    | [] -> raise Not_found
  in
  go l.fields

let field_offset reg arch ~ty ~field:name = (field (of_type reg arch ty) name).offset

let field_type reg ~ty ~field =
  match Registry.resolve reg ty with
  | Type_desc.Struct fs -> (
    match List.assoc_opt field fs with Some t -> t | None -> raise Not_found)
  | Type_desc.Prim _ | Pointer _ | Array _ -> raise Not_found
  | Type_desc.Named _ -> assert false (* resolve returns structural *)

let leaves reg arch ty = (of_type reg arch ty).leaves
let pointer_leaves reg arch ty = (of_type reg arch ty).pointer_leaves
