pub fn is_mirrored(planner: &dyn OrgPlanner) -> bool {
    planner.has_mirror()
}
