pub fn default_org() -> Organization {
    Organization::Mirror
}
