open Srpc_types

type rule = { follow : string list; prune_others : bool }
type t = (string, rule) Hashtbl.t

exception Unknown_field of { ty : string; field : string }

let () =
  Printexc.register_printer (function
    | Unknown_field { ty; field } ->
      Some
        (Printf.sprintf
           "Srpc_core.Hints.Unknown_field: hint for type %S names field %S, \
            which the type does not declare"
           ty field)
    | _ -> None)

let create () = Hashtbl.create 8
let set t ~ty rule = Hashtbl.replace t ty rule
let clear t ~ty = Hashtbl.remove t ty
let find t ~ty = Hashtbl.find_opt t ty
let to_list t = Hashtbl.fold (fun ty rule acc -> (ty, rule) :: acc) t []

(* Pointer leaves contributed by one direct field, at its offset. *)
let field_pointer_leaves l ~ty ~field =
  match Layout.field l field with
  | f -> List.map (fun (off, target) -> (f.offset + off, target)) f.layout.pointer_leaves
  | exception Not_found -> raise (Unknown_field { ty; field })

let pointer_fields t reg arch ~ty =
  let l = Layout.of_name reg arch ty in
  match find t ~ty with
  | None -> l.pointer_leaves
  | Some { follow; prune_others } ->
    let followed =
      List.concat_map (fun field -> field_pointer_leaves l ~ty ~field) follow
    in
    if prune_others then followed
    else begin
      let seen = List.map fst followed in
      let rest = List.filter (fun (off, _) -> not (List.mem off seen)) l.pointer_leaves in
      followed @ rest
    end
