open Dadu_linalg

type plane = Xy | Xz | Yz

type posture = { label : string; theta : Vec.t; color : string }

let palette = [| "#1f77b4"; "#d62728"; "#2ca02c"; "#9467bd"; "#ff7f0e"; "#8c564b" |]

let posture ?color ?(label = "posture") theta =
  let color =
    match color with
    | Some c -> c
    | None -> palette.(Hashtbl.hash label mod Array.length palette)
  in
  { label; theta; color }

let project plane (v : Vec3.t) =
  match plane with
  | Xy -> (v.Vec3.x, v.Vec3.y)
  | Xz -> (v.Vec3.x, v.Vec3.z)
  | Yz -> (v.Vec3.y, v.Vec3.z)

let chain_points chain theta =
  let frames = Fk.frames chain theta in
  Array.to_list (Array.map Mat4.position frames)

let render ?(width = 640) ?(height = 480) ?(plane = Xy) ?(targets = []) chain
    postures =
  if postures = [] then invalid_arg "Viz.render: no postures";
  let polylines =
    List.map (fun p -> (p, List.map (project plane) (chain_points chain p.theta))) postures
  in
  let target_points = List.map (project plane) targets in
  (* view box fitted over everything *)
  let xs =
    List.concat_map (fun (_, pts) -> List.map fst pts) polylines
    @ List.map fst target_points
  in
  let ys =
    List.concat_map (fun (_, pts) -> List.map snd pts) polylines
    @ List.map snd target_points
  in
  let min_l = List.fold_left Float.min infinity in
  let max_l = List.fold_left Float.max neg_infinity in
  let x0 = min_l xs and x1 = max_l xs and y0 = min_l ys and y1 = max_l ys in
  let span = Float.max 1e-6 (Float.max (x1 -. x0) (y1 -. y0)) in
  let margin = 0.1 *. span in
  let x0 = x0 -. margin and y0 = y0 -. margin in
  let extent = span +. (2. *. margin) in
  let scale = Float.min (float_of_int width) (float_of_int height) /. extent in
  (* SVG's y grows downward; flip it *)
  let px x = (x -. x0) *. scale in
  let py y = float_of_int height -. ((y -. y0) *. scale) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        viewBox=\"0 0 %d %d\">\n"
       width height width height);
  Buffer.add_string buf "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  List.iteri
    (fun idx (p, pts) ->
      let path =
        String.concat " "
          (List.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" (px x) (py y)) pts)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"2\" \
            class=\"posture\"/>\n"
           path p.color);
      List.iter
        (fun (x, y) ->
          Buffer.add_string buf
            (Printf.sprintf
               "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" fill=\"%s\" class=\"joint\"/>\n"
               (px x) (py y) p.color))
        pts;
      Buffer.add_string buf
        (Printf.sprintf "<text x=\"8\" y=\"%d\" fill=\"%s\" font-size=\"13\">%s</text>\n"
           (16 + (idx * 16))
           p.color p.label))
    polylines;
  List.iter
    (fun (x, y) ->
      let cx = px x and cy = py y in
      Buffer.add_string buf
        (Printf.sprintf
           "<path d=\"M %.1f %.1f L %.1f %.1f M %.1f %.1f L %.1f %.1f\" \
            stroke=\"black\" stroke-width=\"2\" class=\"target\"/>\n"
           (cx -. 5.) (cy -. 5.) (cx +. 5.) (cy +. 5.) (cx -. 5.) (cy +. 5.)
           (cx +. 5.) (cy -. 5.)))
    target_points;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let write ?width ?height ?plane ?targets ~path chain postures =
  let svg = render ?width ?height ?plane ?targets chain postures in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc svg)
