open Srpc_memory

type t = {
  rows : (int, string Space_id.Table.t) Hashtbl.t;
      (** datum address -> per-peer image *)
  owner : (int, int) Hashtbl.t;  (** datum address -> recording session *)
}

let create () = { rows = Hashtbl.create 32; owner = Hashtbl.create 32 }

let record t ?owner ~peer ~addr image =
  (match owner with Some o -> Hashtbl.replace t.owner addr o | None -> ());
  let row =
    match Hashtbl.find_opt t.rows addr with
    | Some row -> row
    | None ->
      let row = Space_id.Table.create 4 in
      Hashtbl.add t.rows addr row;
      row
  in
  Space_id.Table.replace row peer image

let base t ~peer ~addr =
  match Hashtbl.find_opt t.rows addr with
  | Some row -> Space_id.Table.find_opt row peer
  | None -> None

let remove t addr =
  Hashtbl.remove t.rows addr;
  Hashtbl.remove t.owner addr

let purge t ~owner =
  Hashtbl.fold
    (fun addr o acc -> if o = owner then addr :: acc else acc)
    t.owner []
  |> List.iter (remove t)

let reset t =
  Hashtbl.reset t.rows;
  Hashtbl.reset t.owner
