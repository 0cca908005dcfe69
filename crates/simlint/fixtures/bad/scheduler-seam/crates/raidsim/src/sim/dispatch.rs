pub fn is_mirrored(org: Organization) -> bool {
    matches!(org, Organization::Mirror)
}
